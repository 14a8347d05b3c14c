// Package fm2 implements Illinois Fast Messages 2.x — the paper's primary
// contribution (§4, Table 2):
//
//	FM_begin_message(dest, size, handler) -> Endpoint.BeginMessage
//	FM_send_piece(stream, buf, bytes)     -> SendStream.SendPiece
//	FM_end_message(stream)                -> SendStream.EndMessage
//	FM_receive(stream, buf, bytes)        -> RecvStream.Receive
//	FM_extract(bytes)                     -> Endpoint.Extract
//
// FM 2.x keeps the FM 1.x guarantees (reliable, in-order delivery; sender
// flow control; decoupled communication scheduling) and adds the three
// services that let higher layers obtain 70-90% of FM's bandwidth:
//
//   - Gather/scatter: messages are byte streams composed and decomposed
//     piecewise, so headers can be attached and removed with no
//     assembly/staging copies.
//   - Layer interleaving: each incoming message is processed by a handler
//     running on its own logical thread, started as soon as the first
//     packet arrives; FM_receive inside the handler pulls payload directly
//     into the destination buffer chosen after the header is examined.
//   - Receiver flow control: FM_extract takes a byte budget (rounded up to
//     a packet boundary), so the receiver paces data presentation and
//     avoids overrunning upper-layer buffer pools.
//
// Endpoints are single-threaded like the real library: exactly one Proc per
// node may call BeginMessage/SendPiece/EndMessage/Extract. Handlers run on
// kernel-scheduled coroutines managed by the endpoint and may call only
// RecvStream.Receive and host cost-charging methods.
package fm2

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HandlerID names a registered message handler, carried in packet headers.
type HandlerID uint16

// Handler processes one incoming message on its own logical thread. It
// reads the message through s.Receive, which may deschedule it until more
// packets arrive (paper §4.1, "transparent handler multithreading").
type Handler func(p *sim.Proc, s *RecvStream)

// Config adjusts the FM 2.x engine. The zero value is the full protocol.
type Config struct {
	// DisableFlowControl removes credit accounting (ablation).
	DisableFlowControl bool
	// PoolCap bounds every per-endpoint free list — data frames, control
	// headers, send/receive stream records, loopback staging — so bursty
	// senders cannot pin unbounded recycled memory. 0 means
	// netsim.DefaultPoolCap; each pool reports a high-water mark.
	PoolCap int
	// PoisonFrames overwrites every recycled buffer with a poison pattern,
	// catching handlers (or engine paths) that illegally read payload after
	// the frame returned to its pool. Debug mode: wall-clock cost only,
	// virtual-time results are unchanged.
	PoisonFrames bool
}

// DefaultMaxMessage is the FM 2.x message size limit.
const DefaultMaxMessage = 4 << 20

// Packet header layout (16 bytes):
//
//	[0]      type (1=data, 2=credit: built and parsed by flowctl.Plane)
//	[1]      flags (bit0 first packet, bit1 last packet)
//	[2:4]    source node
//	[4:6]    message ID (per-sender sequence)
//	[6:8]    handler ID
//	[8:10]   packet payload length
//	[10:14]  total message length / credit count
//	[14:16]  reserved
const (
	headerSize     = 16
	creditCountOff = 10
	typeData       = 1
	flagFirst      = 1
	flagLast       = 2
)

// Stats counts endpoint activity.
type Stats struct {
	MsgsSent, MsgsRecvd       int64
	PacketsSent, PacketsRecvd int64
	BytesSent, BytesRecvd     int64
	// DiscardedBytes counts payload dropped because a handler returned
	// before consuming its whole message (FM semantics: the rest of the
	// stream is discarded).
	DiscardedBytes int64
	UnknownHandler int64
	// Malformed counts structurally invalid frames (bad type, truncated
	// header, out-of-range source or length) discarded instead of trusted.
	// The link CRC drops corrupted frames at the NIC, so a nonzero count
	// here means injected garbage or a software bug — never wire noise.
	Malformed int64
	// Orphaned counts well-formed continuation frames whose stream context
	// was lost because an earlier frame of the message vanished in flight
	// (drop, CRC, outage). The frame is discarded and its ring credit
	// returned; the message itself is gone — FM has no retransmit.
	Orphaned int64
}

// Endpoint is one node's FM 2.x attachment.
type Endpoint struct {
	node     int
	h        *hostmodel.Host
	nic      *lanai.NIC
	cfg      Config
	handlers map[HandlerID]Handler
	credit   flowctl.Plane // credit ledger, control frames and their pool
	active   map[uint32]*RecvStream
	msgSeq   uint16
	stats    Stats

	// The zero-allocation steady state: every hot-path object recirculates
	// through a bounded per-endpoint free list. Frames are drawn here, filled
	// in place, and released back by the RECEIVING endpoint once consumed.
	frames   *netsim.FramePool            // data frames (PacketMTU backing)
	ssPool   bufpool.FreeList[SendStream] // recycled send-stream records
	rsPool   bufpool.FreeList[RecvStream] // recycled receive-stream records
	loopPool *bufpool.Pool                // loopback staging buffers

	// Handler worker Procs: one coroutine services one message handler at a
	// time and parks for reassignment instead of dying, so steady-state
	// receive traffic spawns no goroutines.
	idleWorkers []*hworker
	numWorkers  int
}

// NewEndpoint attaches FM 2.x to node `node` of the platform.
func NewEndpoint(pl *cluster.Platform, node int, cfg Config) *Endpoint {
	h := pl.Hosts[node]
	poolCap := cfg.PoolCap
	if poolCap <= 0 {
		poolCap = netsim.DefaultPoolCap
	}
	e := &Endpoint{
		node:     node,
		h:        h,
		nic:      pl.NICs[node],
		cfg:      cfg,
		handlers: make(map[HandlerID]Handler),
		credit: flowctl.NewPlane(pl.NICs[node], pl.Nodes(), headerSize, creditCountOff,
			poolCap, cfg.DisableFlowControl),
		active:   make(map[uint32]*RecvStream),
		frames:   netsim.NewFramePool(h.P.PacketMTU, poolCap),
		ssPool:   bufpool.NewFreeList[SendStream](poolCap),
		rsPool:   bufpool.NewFreeList[RecvStream](poolCap),
		loopPool: bufpool.New(poolCap),
	}
	if cfg.PoisonFrames {
		e.frames.SetPoison(true)
		e.credit.Pool().SetPoison(true)
		e.loopPool.SetPoison(true)
	}
	if pl.Parallel() {
		// Frames this endpoint allocates are released by receivers on other
		// LPs' goroutines; the wire pools must take their mutex mode. The
		// stream and loopback pools stay lock-free: they never leave this
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

// ActiveStreams reports messages currently in flight on the receive side —
// zero at quiesce is the handler-lifecycle invariant tests check.
func (e *Endpoint) ActiveStreams() int { return len(e.active) }

// FramePoolStats reports the recycling counters of the data-frame and
// control-header pools (cap, high-water mark, steady-state alloc behavior).
func (e *Endpoint) FramePoolStats() (data, ctrl netsim.PoolStats) {
	return e.frames.Stats(), e.credit.Pool().Stats()
}

// HandlerWorkers reports how many handler coroutines this endpoint has ever
// spawned: bounded by the peak number of concurrently-open receive streams,
// not by message count.
func (e *Endpoint) HandlerWorkers() int { return e.numWorkers }

// Poisoned reports whether poison-on-recycle debugging is on.
func (e *Endpoint) Poisoned() bool { return e.cfg.PoisonFrames }

// Register installs a handler under id.
func (e *Endpoint) Register(id HandlerID, fn Handler) {
	if _, dup := e.handlers[id]; dup {
		panic(fmt.Sprintf("fm2: duplicate handler %d", id))
	}
	e.handlers[id] = fn
}
