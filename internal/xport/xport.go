// Package xport defines the unified streaming transport contract that every
// upper layer of this reproduction (MPI-FM, Sockets-FM, Shmem, Global
// Arrays) programs against, and that every Fast Messages generation
// implements. It is the paper's central interface argument made structural:
// the FM 2.x services — gather/scatter streaming, layer interleaving,
// receiver flow control — are exactly what a messaging layer needs to carry
// *any* API efficiently (§4), so the 2.x shape IS the contract:
//
//	BeginMessage / SendPiece / EndMessage   on the send side
//	handler-driven Receive pull + Extract   on the receive side
//
// A layer holds that contract as a HandlerSpace, its window onto the node's
// one Endpoint. Transport, beneath the Endpoint, is what an engine binding
// keeps, and the binding alone knows the engine's handler and stream types.
// Each handler is one entry in its engine's table (flowctl's rule), and the
// binding makes its one closure: OverFM2 bridges the handler signature and
// nothing else; OverFM1 stages the message, and its explicit assembly and
// delivery copies are the interface tax the paper's Figure 4 measures —
// running any layer over both bindings prices the API difference with no
// layer-specific glue.
//
// Like the FM libraries themselves, a Transport is single-threaded: exactly
// one Proc per node drives BeginMessage/Extract; handlers run only inside
// Extract (or inline for loopback sends).
//
// Rules for the layers above. Each binds only to a HandlerSpace. Every
// blocking wait is HandlerSpace.Wait, every self-paced one WaitPaced. The
// kernel's dispatcher evaluates a wait's condition and turn work, so each
// must be O(1), read-only, about its own node, and a pointer into state
// allocated once: a closure there is a malloc per wait. About its own node
// bears on results: a verdict is taken to stand until the node acts, and
// time enters only through the wait's Pace (a GlobalCond says otherwise).
// Whatever an idle pass of those loops would read, refresh or act on belongs
// in the idle test (flowctl.Waiter.Idle and waiting.Done), or virtual times
// move. A receive handler pulls its wire header with ReceiveHeader, and
// bounds every wire length by the stream's Remaining() before the length
// sizes anything.
//
// One machine per generation: a generation's host profile, MPI costs and
// engine stage (the profile's Stage) are chosen in Gen.Machine and nowhere
// else. Every
// builder, harness driver and test helper at or above this package starts
// from a Machine and varies its fields; none names hostmodel's Sparc or
// PPro200 profiles or mpifm's overhead constructors (those two serve the
// repo benchmark, which assembles its stacks by hand). The layers below
// (cluster, lanai, fm1, fm2, flowctl) name profiles directly: they cannot
// import this package.
package xport

import (
	"repro/internal/flowctl"
	"repro/internal/sim"
)

// HandlerID names a registered message handler, carried in message headers:
// the engines' own id type, named here for the layers above.
type HandlerID = flowctl.HandlerID

// Handler processes one incoming message, pulling its bytes through
// RecvStream.Receive. Over FM 2.x it runs on its own logical thread and may
// block mid-message; over FM 1.x the message is fully staged before the
// handler starts, so Receive never blocks. Handlers must not retain the
// stream past their return.
type Handler func(p *sim.Proc, s RecvStream)

// RecvStream is the receive side of one in-flight message: the pull
// interface handed to its handler.
type RecvStream interface {
	// Src reports the sending node.
	Src() int
	// Length reports the total message length, available before payload.
	Length() int
	// Remaining reports unconsumed message bytes.
	Remaining() int
	// Receive extracts up to len(buf) bytes into buf, blocking (over
	// transports that stream) until they arrive. Returns bytes written:
	// min(len(buf), Remaining()).
	Receive(p *sim.Proc, buf []byte) int
	// ReceiveDiscard consumes and drops n bytes without charging a copy.
	// Returns bytes actually skipped.
	ReceiveDiscard(p *sim.Proc, n int) int
}

// SendStream is an open outgoing message, composed piecewise (gather).
type SendStream interface {
	// SendPiece appends buf to the message stream.
	SendPiece(p *sim.Proc, buf []byte) error
	// EndMessage closes the stream; every declared byte must be supplied.
	EndMessage(p *sim.Proc) error
}

// Transport is the contract an FM engine binding keeps beneath the node's
// Endpoint; layers hold a HandlerSpace instead. It names only what the two
// bindings do differently. What both answer the same way — node, host, MTU,
// message limit, extracted-packet count, credit ledger, frame
// anomaly counters — is the endpoint core both engines embed, and Core is
// the one accessor to it.
type Transport interface {
	// Core is the engine's endpoint core.
	Core() *flowctl.EndpointCore
	// Register installs fn, a handler of hs, in the engine's table under the
	// wire id, as the one closure that runs each message as hs.run(p, fn, s).
	// Panics on duplicates.
	Register(id HandlerID, hs *HandlerSpace, fn Handler)
	// BeginMessage opens a message of exactly size payload bytes toward
	// dst. dst == Node() is a loopback self-send: a host memcpy that never
	// touches the NIC.
	BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error)
	// ExtractWait services the network, processing at most maxBytes of
	// payload (rounded up to a packet boundary); maxBytes <= 0 means no
	// limit. Transports without receiver flow control (FM 1.x) ignore the
	// budget. It returns the number of messages completed during the call.
	// A nil w is FM_extract: one empty poll and back. Otherwise the call is
	// on behalf of a caller blocked on w.Until, and an empty poll repeats,
	// one poll period apart, until there is something to extract or the wait
	// is over; upper layers get that through HandlerSpace.Wait.
	ExtractWait(p *sim.Proc, maxBytes int, w *flowctl.Waiter) int
}

// Cond is a blocked caller's wait condition (see HandlerSpace.Wait).
type Cond = flowctl.Cond

// GlobalCond is a Cond that may read other nodes' state, breaking Cond's
// contract: Global reports, at the start of a wait, whether this one does.
// Its idle verdicts then stand for one tick only, and the kernel asks it at
// every tick. svcload's wait for global completion is the one.
type GlobalCond interface {
	Cond
	Global() bool
}

// CreditAccounting names the endpoint core's credit-ledger accessor, which
// both bindings promote, for callers that hold only a Transport value and
// assert it. Code inside this module asks t.Core().FlowControl() directly.
type CreditAccounting interface {
	FlowControl() *flowctl.Manager
}

// SendGather transmits the concatenation of pieces as one message from hs —
// the header+payload pattern of every protocol layer.
func SendGather(p *sim.Proc, hs *HandlerSpace, dst int, h HandlerID, pieces ...[]byte) error {
	total := 0
	for _, pc := range pieces {
		total += len(pc)
	}
	s, err := hs.BeginMessage(p, dst, total, h)
	if err != nil {
		return err
	}
	for _, pc := range pieces {
		if err := s.SendPiece(p, pc); err != nil {
			return err
		}
	}
	return s.EndMessage(p)
}
