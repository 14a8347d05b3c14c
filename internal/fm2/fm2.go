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
	// PoisonFrames overwrites every recycled buffer with a poison pattern,
	// catching handlers (or engine paths) that illegally read payload after
	// the frame returned to its pool. Debug mode: wall-clock cost only,
	// virtual-time results are unchanged.
	PoisonFrames bool
}

// DefaultMaxMessage is the FM 2.x message size limit.
const DefaultMaxMessage = 4 << 20

// The FM 2.x packet header layout (16 bytes), built and parsed by
// flowctl.EndpointCore (data) and flowctl.Plane (credit) — all but the
// message ID, which is this package's own:
//
//	[0]      type (1=data, 2=credit)
//	[1]      flags (bit0 first packet, bit1 last packet)
//	[2:4]    source node
//	[4:6]    message ID (per-sender sequence)
//	[6:8]    handler ID
//	[8:10]   packet payload length
//	[10:14]  total message length (data) / credit count (credit)
//	[14:16]  reserved
const (
	headerSize = 16
	msgIDOff   = 4
)

var wire = flowctl.Wire{Size: headerSize, Handler: 6, FragLen: 8, Total: 10, MaxMessage: DefaultMaxMessage}

// Stats counts endpoint activity.
type Stats = flowctl.Stats

// Endpoint is one node's FM 2.x attachment: the endpoint core every FM
// generation shares (flowctl.EndpointCore: host, NIC, credit plane, frame
// pool, counters, the per-packet send and extract steps, the accessors) plus
// what Table 2's API adds — streams, message IDs, handler threads and the
// byte budget on Extract.
type Endpoint struct {
	flowctl.EndpointCore
	handlers map[HandlerID]Handler
	active   map[uint32]*RecvStream
	msgSeq   uint16

	// The zero-allocation steady state: every hot-path object recirculates
	// through a bounded per-endpoint free list, like the core's frames.
	ssPool   bufpool.FreeList[SendStream] // recycled send-stream records
	rsPool   bufpool.FreeList[RecvStream] // recycled receive-stream records
	loopPool *bufpool.Pool                // loopback staging buffers

	// Handler worker Procs: one coroutine services one message handler at a
	// time and parks for reassignment instead of dying, so steady-state
	// receive traffic spawns no goroutines.
	idleWorkers []*hworker
	numWorkers  int
}

// Attach creates endpoints for every node of the platform.
func Attach(pl *cluster.Platform, cfg Config) []*Endpoint {
	eps := make([]*Endpoint, pl.Nodes())
	for i := range eps {
		e := &Endpoint{
			EndpointCore: flowctl.NewEndpointCore(pl.NICs[i], pl.Nodes(), wire,
				cfg.PoisonFrames, false), // credits always on: the ablation is fm1's
			handlers: make(map[HandlerID]Handler),
			active:   make(map[uint32]*RecvStream),
		}
		e.ssPool = bufpool.NewFreeList[SendStream](netsim.DefaultPoolCap)
		e.rsPool = bufpool.NewFreeList[RecvStream](netsim.DefaultPoolCap)
		e.loopPool = bufpool.New(netsim.DefaultPoolCap, cfg.PoisonFrames)
		eps[i] = e
	}
	return eps
}

// ActiveStreams reports messages currently in flight on the receive side —
// zero at quiesce is the handler-lifecycle invariant tests check.
func (e *Endpoint) ActiveStreams() int { return len(e.active) }

// HandlerWorkers reports how many handler coroutines this endpoint has ever
// spawned: bounded by the peak number of concurrently-open receive streams,
// not by message count.
func (e *Endpoint) HandlerWorkers() int { return e.numWorkers }

// Register installs a handler under id.
func (e *Endpoint) Register(id HandlerID, fn Handler) {
	if _, dup := e.handlers[id]; dup {
		panic(fmt.Sprintf("fm2: duplicate handler %d", id))
	}
	e.handlers[id] = fn
}
