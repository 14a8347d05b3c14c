// Package fm1 implements Illinois Fast Messages 1.1 (paper §3, Table 1):
//
//	FM_send_4(dest, handler, i0..i3)  -> Endpoint.Send4
//	FM_send(dest, handler, buf, size) -> Endpoint.Send
//	FM_extract()                      -> Endpoint.Extract
//
// FM 1.x provides reliable, in-order delivery with sender flow control and
// buffer management on top of the Myrinet properties (low error rate,
// deterministic routing, link back-pressure). Its API limitation — messages
// are single contiguous buffers, presented whole to handlers from a staging
// area — is exactly what FM 2.x later fixes, and what the Figure 4
// experiments quantify.
//
// Endpoints are single-threaded, like the real library: exactly one Proc
// per node may call Send*/Extract.
package fm1

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HandlerID names a registered message handler, carried in every packet.
type HandlerID uint16

// Handler processes a received message. data is valid only for the duration
// of the call (it aliases FM buffers), matching the real API's contract.
// The Proc is the extracting Proc: handler time is charged to the host CPU.
type Handler func(p *sim.Proc, src int, data []byte)

// Config selects which FM 1.x engine stages are active. The zero value is
// the full protocol; benches for Figure 3a turn stages off.
type Config struct {
	// DisableFlowControl removes credit accounting (stage "link/bus only").
	DisableFlowControl bool
	// DisableBufferMgmt removes staging-copy charges for multi-packet
	// reassembly (stages before the final engine in Figure 3).
	DisableBufferMgmt bool
	// PoolCap bounds the frame, control-header, and assembly-buffer free
	// lists (0 means netsim.DefaultPoolCap); each reports a high-water mark.
	PoolCap int
	// PoisonFrames overwrites recycled frames and assembly buffers with a
	// poison pattern, catching handlers that retain data past their call —
	// the contract the real FM 1.x API imposes. Debug mode: wall-clock cost
	// only.
	PoisonFrames bool
}

// DefaultMaxMessage is the FM 1.x message size limit.
const DefaultMaxMessage = 1 << 20

// Packet header layout (12 bytes):
//
//	[0]     type (1=data, 2=credit: built and parsed by flowctl.Plane)
//	[1]     flags (bit0 first fragment, bit1 last fragment)
//	[2:4]   source node
//	[4:6]   handler ID
//	[6:8]   fragment payload length
//	[8:12]  total message length (first fragment) / credit count (credit)
const (
	headerSize     = 12
	creditCountOff = 8
	typeData       = 1
	flagFirst      = 1
	flagLast       = 2
)

// Stats counts endpoint activity.
type Stats struct {
	MsgsSent, MsgsRecvd       int64
	PacketsSent, PacketsRecvd int64
	BytesSent, BytesRecvd     int64
	UnknownHandler            int64
	// Malformed counts structurally invalid frames discarded instead of
	// trusted (the link CRC keeps wire noise out; this is injected garbage
	// or a software bug).
	Malformed int64
	// Orphaned counts well-formed fragments discarded because an earlier
	// fragment of their message was lost in flight — reassembly cannot
	// complete, and FM has no retransmit. Ring credits still return.
	Orphaned int64
}

// Endpoint is one node's FM 1.x attachment.
type Endpoint struct {
	node     int
	h        *hostmodel.Host
	nic      *lanai.NIC
	cfg      Config
	handlers map[HandlerID]Handler
	credit   flowctl.Plane // credit ledger, control frames and their pool
	asm      []assembly    // per-source reassembly state
	stats    Stats

	// Zero-allocation steady state: frames recirculate through bounded
	// per-endpoint pools (released by the receiving endpoint once consumed),
	// and multi-packet reassembly draws staging buffers from a free list.
	frames  *netsim.FramePool // data frames (PacketMTU backing)
	asmPool *bufpool.Pool     // reassembly staging buffers
}

type assembly struct {
	buf     []byte
	want    int
	handler HandlerID
	active  bool
}

// NewEndpoint attaches FM 1.x to node `node` of the platform.
func NewEndpoint(pl *cluster.Platform, node int, cfg Config) *Endpoint {
	h := pl.Hosts[node]
	poolCap := cfg.PoolCap
	if poolCap <= 0 {
		poolCap = netsim.DefaultPoolCap // one resolved bound for all three pools
	}
	e := &Endpoint{
		node:     node,
		h:        h,
		nic:      pl.NICs[node],
		cfg:      cfg,
		handlers: make(map[HandlerID]Handler),
		credit: flowctl.NewPlane(pl.NICs[node], pl.Nodes(), headerSize, creditCountOff,
			poolCap, cfg.DisableFlowControl),
		asm:     make([]assembly, pl.Nodes()),
		frames:  netsim.NewFramePool(h.P.PacketMTU, poolCap),
		asmPool: bufpool.New(poolCap),
	}
	if cfg.PoisonFrames {
		e.frames.SetPoison(true)
		e.credit.Pool().SetPoison(true)
		e.asmPool.SetPoison(true)
	}
	if pl.Parallel() {
		// Frames this endpoint allocates are released by receivers on other
		// LPs' goroutines; the wire pools must take their mutex mode. The
		// reassembly pool stays lock-free: its buffers live and die on this
		// node's own kernel.
		e.frames.SetShared(true)
		e.credit.Pool().SetShared(true)
	}
	return e
}

// Attach creates endpoints for every node of the platform.
func Attach(pl *cluster.Platform, cfg Config) []*Endpoint {
	eps := make([]*Endpoint, pl.Nodes())
	for i := range eps {
		eps[i] = NewEndpoint(pl, i, cfg)
	}
	return eps
}

// Node reports this endpoint's node ID.
func (e *Endpoint) Node() int { return e.node }

// Host returns the underlying host (for cost charging by upper layers).
func (e *Endpoint) Host() *hostmodel.Host { return e.h }

// Stats returns a copy of the endpoint counters; Malformed covers bad
// control frames as well as bad data frames.
func (e *Endpoint) Stats() Stats {
	st := e.stats
	st.Malformed += e.credit.Malformed()
	return st
}

// FlowControl exposes the credit manager (tests assert its invariants).
func (e *Endpoint) FlowControl() *flowctl.Manager { return e.credit.Manager() }

// MTU reports the per-packet payload capacity.
func (e *Endpoint) MTU() int { return e.h.P.PacketMTU - headerSize }

// MaxMessage reports the message size limit.
func (e *Endpoint) MaxMessage() int { return DefaultMaxMessage }

// FramePoolStats reports the recycling counters of the data-frame and
// control-header pools.
func (e *Endpoint) FramePoolStats() (data, ctrl netsim.PoolStats) {
	return e.frames.Stats(), e.credit.Pool().Stats()
}

// AsmPoolStats reports the reassembly-buffer free list's counters.
func (e *Endpoint) AsmPoolStats() bufpool.Stats { return e.asmPool.Stats() }

// Poisoned reports whether poison-on-recycle debugging is on.
func (e *Endpoint) Poisoned() bool { return e.cfg.PoisonFrames }

// Register installs a handler under id. Handlers must be registered before
// any peer sends to them.
func (e *Endpoint) Register(id HandlerID, fn Handler) {
	if _, dup := e.handlers[id]; dup {
		panic(fmt.Sprintf("fm1: duplicate handler %d", id))
	}
	e.handlers[id] = fn
}

// Send4 transmits a four-word message — the FM_send_4 fast path for the
// short messages that dominate real traffic (paper §2.1).
func (e *Endpoint) Send4(p *sim.Proc, dst int, h HandlerID, w0, w1, w2, w3 uint32) error {
	var buf [16]byte
	binary.LittleEndian.PutUint32(buf[0:], w0)
	binary.LittleEndian.PutUint32(buf[4:], w1)
	binary.LittleEndian.PutUint32(buf[8:], w2)
	binary.LittleEndian.PutUint32(buf[12:], w3)
	return e.Send(p, dst, h, buf[:])
}

// Send transmits buf as one FM message, fragmenting at the packet MTU.
// It blocks (in virtual time) on flow-control credits and NIC back-pressure
// but never on the receiver servicing the network: FM buffering lets the
// sender run ahead by a full credit window. dst == Node() is a loopback
// self-send: the handler is dispatched directly on the sending Proc as a
// host memcpy path, with no NIC or flow-control involvement.
func (e *Endpoint) Send(p *sim.Proc, dst int, h HandlerID, buf []byte) error {
	if len(buf) > DefaultMaxMessage {
		return fmt.Errorf("fm1: message of %d bytes exceeds limit %d", len(buf), DefaultMaxMessage)
	}
	if dst == e.node {
		p.Delay(e.h.P.SendSetup)
		e.stats.MsgsSent++
		e.stats.BytesSent += int64(len(buf))
		e.dispatch(p, e.node, h, buf)
		return nil
	}
	p.Delay(e.h.P.SendSetup)
	mtu := e.MTU()
	total := len(buf)
	off := 0
	first := true
	for {
		n := total - off
		if n > mtu {
			n = mtu
		}
		p.Delay(e.h.P.PerPacketSend)
		e.credit.Acquire(p, dst)
		// Header and payload are written into a pooled frame in place; the
		// receiving endpoint releases the frame once it is consumed.
		pkt := e.frames.Get(headerSize + n)
		frame := pkt.Payload
		frame[0] = typeData
		var flags byte
		if first {
			flags |= flagFirst
		}
		if off+n == total {
			flags |= flagLast
		}
		frame[1] = flags
		binary.LittleEndian.PutUint16(frame[2:], uint16(e.node))
		binary.LittleEndian.PutUint16(frame[4:], uint16(h))
		binary.LittleEndian.PutUint16(frame[6:], uint16(n))
		binary.LittleEndian.PutUint32(frame[8:], uint32(total))
		copy(frame[headerSize:], buf[off:off+n])
		e.nic.HostSendPacket(p, pkt, dst, false)
		e.stats.PacketsSent++
		off += n
		first = false
		if off >= total {
			break
		}
	}
	e.stats.MsgsSent++
	e.stats.BytesSent += int64(total)
	return nil
}

// Extract services the network: it processes all pending packets, invoking
// handlers for completed messages, and returns the number of messages
// handled. Unlike sends, Extract is the only place handlers run — the
// decoupling FM 1.x guarantees (paper §3.1).
func (e *Endpoint) Extract(p *sim.Proc) int { return e.ExtractWait(p, nil) }

// ExtractWait is Extract on behalf of a caller blocked on w.Until: when it
// finds nothing it keeps polling, one empty poll per poll period, until there
// is something to extract or the caller's wait is over (flowctl.IdlePoll),
// instead of returning after the first empty poll for the caller to check
// and call straight back. A nil w is Extract.
func (e *Endpoint) ExtractWait(p *sim.Proc, w *flowctl.Waiter) int {
	e.credit.DrainCtrl()
	handled := 0
	polled := false
	for {
		pkt, ok := e.nic.Poll()
		if !ok {
			if !polled {
				// Idle poll: flush withheld partial credit batches so a
				// gated multi-packet sender can't starve (see Plane.Flush).
				p.PollEvery(e.credit.IdlePoll(p, w))
			}
			break
		}
		polled = true
		p.Delay(e.h.P.PerPacketRecv)
		if e.processData(p, pkt) {
			handled++
		}
		e.stats.PacketsRecvd++
	}
	return handled
}

// processData consumes one data frame; it reports whether a full message
// was delivered to its handler. The frame releases back to its sender's
// pool here: after the handler returns (single-packet path — data is valid
// only for the duration of the call, the real API's contract) or after the
// staging copy (multi-packet path).
func (e *Endpoint) processData(p *sim.Proc, pkt *netsim.Packet) bool {
	frame := pkt.Payload
	// Structural validation before any field is trusted (the link CRC keeps
	// corrupted frames out at the NIC; this guards injected garbage). A
	// frame whose source cannot be validated returns no credit — better one
	// leaked ring slot than a Refill to a peer that never spent it.
	if len(frame) < headerSize || frame[0] != typeData {
		e.stats.Malformed++
		pkt.Release()
		return false
	}
	flags := frame[1]
	src := int(binary.LittleEndian.Uint16(frame[2:]))
	h := HandlerID(binary.LittleEndian.Uint16(frame[4:]))
	n := int(binary.LittleEndian.Uint16(frame[6:]))
	total := int(binary.LittleEndian.Uint32(frame[8:]))
	if src == e.node || src >= len(e.asm) || headerSize+n > len(frame) {
		e.stats.Malformed++
		pkt.Release()
		return false
	}
	payload := frame[headerSize : headerSize+n]
	defer e.credit.Return(p, src)

	if flags&flagFirst != 0 && flags&flagLast != 0 {
		// Single-packet message: the handler gets a pointer into the
		// receive ring — no staging copy.
		done := e.dispatch(p, src, h, payload)
		pkt.Release()
		return done
	}
	// Multi-packet message: FM 1.x must reassemble into a staging buffer
	// before the handler can run — the copy FM 2.x streams eliminate. The
	// staging buffer itself comes from a bounded free list.
	if flags&flagFirst != 0 {
		if prev := &e.asm[src]; prev.active {
			// A new message opened while the previous one's tail never
			// arrived: its closing fragment was lost in flight. Discard the
			// stale staging buffer — without this the pool buffer leaks and
			// the two messages' bytes would be spliced together.
			e.stats.Orphaned++
			e.asmPool.Put(prev.buf)
			*prev = assembly{}
		}
		e.asm[src] = assembly{buf: e.asmPool.GetEmpty(total), want: total, handler: h, active: true}
	}
	a := &e.asm[src]
	if !a.active {
		// Continuation with no assembly open: the message's first fragment
		// was lost in flight. Unrecoverable — discard, return the credit.
		e.stats.Orphaned++
		pkt.Release()
		return false
	}
	if !e.cfg.DisableBufferMgmt {
		e.h.Memcpy(p, n) // staging copy, charged
	}
	if len(a.buf)+n > a.want {
		// More bytes than the message declared: a middle fragment of the
		// PREVIOUS attempt survived into this assembly, or lengths lie.
		// Either way the reassembly is poisoned; drop it whole.
		e.stats.Orphaned++
		e.asmPool.Put(a.buf)
		e.asm[src] = assembly{}
		pkt.Release()
		return false
	}
	a.buf = append(a.buf, payload...)
	pkt.Release() // payload is staged; the frame can recycle
	if flags&flagLast != 0 {
		buf, handler, want := a.buf, a.handler, a.want
		e.asm[src] = assembly{}
		if len(buf) != want {
			// Short reassembly: a middle fragment was lost in flight.
			e.stats.Orphaned++
			e.asmPool.Put(buf)
			return false
		}
		done := e.dispatch(p, src, handler, buf)
		e.asmPool.Put(buf)
		return done
	}
	return false
}

func (e *Endpoint) dispatch(p *sim.Proc, src int, h HandlerID, data []byte) bool {
	fn, ok := e.handlers[h]
	if !ok {
		e.stats.UnknownHandler++
		return false
	}
	p.Delay(e.h.P.HandlerDispatch)
	fn(p, src, data)
	e.stats.MsgsRecvd++
	e.stats.BytesRecvd += int64(len(data))
	return true
}
