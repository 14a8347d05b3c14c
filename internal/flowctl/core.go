package flowctl

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Wire is one FM generation's data-frame header layout. Every header opens
// the same way — [0] type (typeData; typeCredit on a control frame), [1]
// fragment flags, [2:4] source node — and the generations differ in where the
// rest sits: FM 1.x is 12 bytes {4, 6, 8}, FM 2.x 16 bytes {6, 8, 10} with its
// message ID at 4, which only fm2 writes and reads. Header bytes past the
// total-length field are reserved: nothing writes or reads them.
type Wire struct {
	Size    int // header bytes; a control frame is exactly this long
	Handler int // offset of the 16-bit handler ID
	FragLen int // offset of the 16-bit fragment payload length
	// Total is the offset of the 32-bit total message length — in a control
	// frame, of the credit count.
	Total      int
	MaxMessage int // largest total length a message may declare
}

const (
	typeData   = 1 // byte 0 of a data frame
	typeCredit = 2 // byte 0 of a control frame (built and parsed by Plane)
	flagFirst  = 1 // byte 1, bit 0: first fragment of its message
	flagLast   = 2 // byte 1, bit 1: last fragment
)

// Stats counts endpoint activity. The core counts packets and malformed
// frames; the engine embedding it counts messages, bytes and the frames it
// had to give up on.
type Stats struct {
	MsgsSent, MsgsRecvd       int64
	PacketsSent, PacketsRecvd int64
	BytesSent, BytesRecvd     int64
	// DiscardedBytes counts payload dropped because a handler returned
	// before consuming its whole message (FM 2.x semantics: the rest of the
	// stream is discarded). FM 1.x hands handlers whole messages: always 0.
	DiscardedBytes int64
	UnknownHandler int64
	// Malformed counts structurally invalid frames (bad type, truncated
	// header, out-of-range source or length) discarded instead of trusted.
	// The link CRC drops corrupted frames at the NIC, so a nonzero count
	// here means injected garbage or a software bug — never wire noise.
	Malformed int64
	// Orphaned counts well-formed fragments discarded because an earlier
	// fragment of their message vanished in flight (drop, CRC, outage). The
	// fragment's ring credit still returns; the message itself is gone — FM
	// has no retransmit.
	Orphaned int64
}

// EndpointCore is the half of an FM endpoint that FM 2.x kept from FM 1.x
// (paper §4): the host and NIC attachment, the credit plane, the data-frame
// pool, the counters, and the per-packet steps of sending and extracting —
// Emit, Next and Open. fm1.Endpoint and fm2.Endpoint embed one by value and
// add what their API generation is about (Table 1: contiguous buffers,
// reassembly into staging; Table 2: streams, handler threads, a byte budget
// on extract).
type EndpointCore struct {
	// Count is the endpoint's counters; the embedding engine bumps the
	// message-level ones. Readers want Stats, which adds the control plane's
	// malformed frames.
	Count Stats
	// Credit is the credit plane. An engine calls Credit.Return once it is
	// done with the ring slot of a frame Open accepted; acquiring, draining
	// and the idle flush happen inside Emit and Next.
	Credit Plane

	h      *hostmodel.Host
	nic    *lanai.NIC
	wire   Wire
	frames *netsim.FramePool // data frames (PacketMTU backing)
}

// NewEndpointCore builds the core of the endpoint attached to nic in a cluster
// of nodes nodes, speaking layout w. The data-frame and control-header free
// lists hold at most netsim.DefaultPoolCap frames each.
func NewEndpointCore(nic *lanai.NIC, nodes int, w Wire) EndpointCore {
	if w.Size > MaxHeader {
		panic(fmt.Sprintf("flowctl: a %d-byte header is longer than MaxHeader", w.Size))
	}
	return EndpointCore{
		Credit: NewPlane(nic, nodes, w.Size, w.Total),
		h:      nic.H,
		nic:    nic,
		wire:   w,
		frames: netsim.NewFramePool(nic.H.P.PacketMTU, netsim.DefaultPoolCap),
	}
}

// Core returns the core itself: the one accessor through which a layer
// holding an engine behind an interface (xport.Transport) reaches everything
// below.
func (c *EndpointCore) Core() *EndpointCore { return c }

// Node reports this endpoint's node ID.
func (c *EndpointCore) Node() int { return c.h.ID }

// Host returns the underlying host (for cost charging by upper layers).
func (c *EndpointCore) Host() *hostmodel.Host { return c.h }

// Stats returns a copy of the endpoint counters; Malformed covers bad
// control frames as well as bad data frames.
func (c *EndpointCore) Stats() Stats {
	st := c.Count
	st.Malformed += c.Credit.malformed
	return st
}

// FlowControl exposes the credit ledger (tests and the benchmark assert its
// invariants).
func (c *EndpointCore) FlowControl() *Manager { return c.Credit.fc }

// MTU reports the per-packet payload capacity.
func (c *EndpointCore) MTU() int { return c.h.P.PacketMTU - c.wire.Size }

// Packets reports how many data packets an n-byte message takes: ⌈n/MTU⌉,
// and one for an empty message. Both FM generations emit exactly this many
// and spend one credit on each, so a caller that sees Packets(n) credits
// toward a peer can send the message without stalling on flow control.
func (c *EndpointCore) Packets(n int) int { return max(1, (n+c.MTU()-1)/c.MTU()) }

// MaxMessage reports the message size limit.
func (c *EndpointCore) MaxMessage() int { return c.wire.MaxMessage }

// FramePoolStats reports the recycling counters of the data-frame and
// control-header pools (cap, high-water mark, steady-state alloc behavior).
func (c *EndpointCore) FramePoolStats() (data, ctrl netsim.PoolStats) {
	return c.frames.Stats(), c.Credit.pool.Stats()
}

// Frame draws an empty data frame of full packet size. The engine writes
// payload from byte Wire.Size on and hands the frame to Emit.
func (c *EndpointCore) Frame() *netsim.Packet { return c.frames.Get(c.h.P.PacketMTU) }

// HandlerID names a registered message handler, carried in every data
// header. It is the one handler id type: fm1, fm2 and xport key their one
// handler table (a Peers) by it.
type HandlerID uint16

// Emit sends one data packet toward dst: pkt is a frame from Frame carrying
// n payload bytes of a total-byte message for handler. It charges the
// per-packet send cost, takes a credit (blocking, in virtual time, while the
// window toward dst is shut), writes the header in place in front of the
// payload and hands the frame to the NIC, which owns it from here; the
// receiving endpoint releases it back to this endpoint's pool.
func (c *EndpointCore) Emit(p *sim.Proc, dst int, pkt *netsim.Packet, first, last bool, handler HandlerID, n, total int) {
	p.Delay(c.h.P.PerPacketSend)
	c.Credit.Acquire(p, dst)
	w := &c.wire
	frame := pkt.Payload[:w.Size+n]
	pkt.Payload = frame
	frame[0] = typeData
	frame[1] = 0
	if first {
		frame[1] |= flagFirst
	}
	if last {
		frame[1] |= flagLast
	}
	binary.LittleEndian.PutUint16(frame[2:], uint16(c.h.ID))
	binary.LittleEndian.PutUint16(frame[w.Handler:], uint16(handler))
	binary.LittleEndian.PutUint16(frame[w.FragLen:], uint16(n))
	binary.LittleEndian.PutUint32(frame[w.Total:], uint32(total))
	c.nic.HostSendPacket(p, pkt, dst, false)
	c.Count.PacketsSent++
}

// Next takes the next packet of one extract call off the receive ring and
// charges its per-packet receive cost; nil means the ring is empty. first
// marks the call's first turn, which drains queued control frames before
// polling and, if the ring is empty, flushes withheld credit and charges the
// empty poll (IdlePoll) — on behalf of a caller blocked on w.Until, one empty
// poll per poll period, w.Gap apart, until there is something to extract or
// the wait is over; w.Paused then says whether it was a poll or a pause that
// ended. A nil w is a plain extract: exactly one empty poll. The engine keeps
// the loop (FM 2.x stops it on a byte budget) and counts a packet received
// once it is done with it.
func (c *EndpointCore) Next(p *sim.Proc, w *Waiter, first bool) *netsim.Packet {
	if first {
		c.Credit.DrainCtrl()
	}
	pkt, ok := c.nic.Poll()
	if !ok {
		// Without a condition (nil w) the wait ends on its first tick, 0.
		if first && p.PollCycle(c.Credit.IdlePoll(p, w)) == 1 && w.Gap > 0 {
			w.Paused = true
		}
		return nil
	}
	p.Delay(c.h.P.PerPacketRecv)
	return pkt
}

// Data is an opened data frame. Payload aliases the frame.
type Data struct {
	First, Last bool
	Src         int
	Handler     HandlerID
	Total       int // the message's declared length
	Payload     []byte
}

// Open validates a frame Next returned before any field of it is trusted.
// The link CRC keeps corrupted frames out at the NIC, so nothing malformed
// arrives from the wire; this guards against injected garbage without giving
// it a crash lever: a truncated header, a wrong type, a source that is this
// node or no node, a fragment length past the end of the frame or a message
// length over the limit (an engine sizes buffers from it) counts one
// Malformed, releases the frame and reports false. Such a frame returns no
// credit — better one leaked ring slot than a Refill to a peer that never
// spent it. For a frame it accepts, the engine owns pkt and owes
// Credit.Return(p, d.Src) once done.
func (c *EndpointCore) Open(pkt *netsim.Packet) (d Data, ok bool) {
	frame := pkt.Payload
	w := &c.wire
	if len(frame) >= w.Size && frame[0] == typeData {
		src := int(binary.LittleEndian.Uint16(frame[2:]))
		n := int(binary.LittleEndian.Uint16(frame[w.FragLen:]))
		total := binary.LittleEndian.Uint32(frame[w.Total:])
		if src != c.h.ID && src < c.Credit.fc.Nodes() && w.Size+n <= len(frame) && total <= uint32(w.MaxMessage) {
			return Data{
				First:   frame[1]&flagFirst != 0,
				Last:    frame[1]&flagLast != 0,
				Src:     src,
				Handler: HandlerID(binary.LittleEndian.Uint16(frame[w.Handler:])),
				Total:   int(total),
				Payload: frame[w.Size : w.Size+n],
			}, true
		}
	}
	c.Count.Malformed++
	pkt.Release()
	return Data{}, false
}
