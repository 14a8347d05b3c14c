package xport

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// The shared-endpoint layer: FM 2.x's defining interface claim is that the
// messaging substrate is shared by many simultaneous clients — MPI, sockets,
// shared memory, global arrays — multiplexed by handler dispatch on ONE
// per-node attachment, not one private NIC binding per library (paper §4.2).
// An Endpoint makes that claim structural: it owns one Transport and hands
// each client a HandlerSpace, a namespaced window onto the shared handler
// table. Co-resident services cannot collide on HandlerIDs, share one credit
// window per peer instead of fighting the fabric with independent windows,
// and draw on one receive ring whose extraction budget is charged fairly.

// SpaceSize is the handler-ID slab each registered service owns. Wire
// handler IDs are service base + local ID; locals must stay below SpaceSize.
const SpaceSize HandlerID = 64

// MaxServices bounds registration so slab bases stay inside HandlerID.
const MaxServices = int(^HandlerID(0)/SpaceSize) - 1

// ServiceStats counts one service's share of the endpoint's traffic.
type ServiceStats struct {
	Msgs  int64 // messages dispatched to this service's handlers
	Bytes int64 // payload bytes consumed (received or discarded) by them
	// Send-side counters, charged when the service successfully opens a
	// message: per-request accounting for layers (RPC, benches) that bill
	// traffic to the service that generated it.
	SentMsgs  int64
	SentBytes int64
}

// Endpoint is one node's shared attachment to the messaging substrate:
// exactly one underlying Transport (FM 1.x or 2.x), multiplexed across
// registered services. Services must be registered in the same order on
// every node of a job — slab bases are positional, like symmetric SHMEM
// allocation — which endpoint-aware assembly (fmnet, bench) guarantees by
// construction.
type Endpoint struct {
	t        Transport
	core     *flowctl.EndpointCore // t.Core(), held so the hot paths skip the interface call
	services []*HandlerSpace
	byName   map[string]*HandlerSpace
	consumed int64 // sum of every service's stats.Bytes
}

// NewEndpoint wraps a Transport as a shared multi-service endpoint. The
// transport's handler table must not be used directly once wrapped: all
// registration goes through HandlerSpaces.
func NewEndpoint(t Transport) *Endpoint {
	return &Endpoint{t: t, core: t.Core(), byName: make(map[string]*HandlerSpace)}
}

// Node reports the endpoint's node ID.
func (e *Endpoint) Node() int { return e.core.Node() }

// packets is the engine's cumulative count of data packets extracted from
// the network: extractFor's progress meter.
func (e *Endpoint) packets() int64 { return e.core.Count.PacketsRecvd }

// Transport exposes the underlying transport (tests assert its invariants;
// clients must bind through a HandlerSpace instead).
func (e *Endpoint) Transport() Transport { return e.t }

// Services lists registered service names in registration (slab) order.
func (e *Endpoint) Services() []string {
	names := make([]string, len(e.services))
	for i, s := range e.services {
		names[i] = s.name
	}
	return names
}

// Register attaches a named service to the endpoint and returns its
// HandlerSpace. The space's handler-ID slab is positional: the i-th
// registered service owns wire IDs [i*SpaceSize, (i+1)*SpaceSize).
func (e *Endpoint) Register(service string) *HandlerSpace {
	if _, dup := e.byName[service]; dup {
		panic(fmt.Sprintf("xport: duplicate service %q on node %d", service, e.Node()))
	}
	if len(e.services) >= MaxServices {
		panic(fmt.Sprintf("xport: too many services on node %d (max %d)", e.Node(), MaxServices))
	}
	hs := &HandlerSpace{
		ep:   e,
		name: service,
		base: HandlerID(len(e.services)) * SpaceSize,
	}
	hs.wait.Until = (*waiting)(hs)
	e.services = append(e.services, hs)
	e.byName[service] = hs
	return hs
}

// Space returns the HandlerSpace of a registered service, or nil.
func (e *Endpoint) Space(service string) *HandlerSpace { return e.byName[service] }

// ServiceStats returns a copy of one service's counters (zero if absent).
func (e *Endpoint) ServiceStats(service string) ServiceStats {
	if hs := e.byName[service]; hs != nil {
		return hs.stats
	}
	return ServiceStats{}
}

// Extract services the shared attachment with no service attribution of the
// budget: a plain pump for callers outside any service (session drivers).
func (e *Endpoint) Extract(p *sim.Proc, maxBytes int) int {
	return e.t.ExtractWait(p, maxBytes, nil)
}

// snapshotFor records every service's consumed-byte counter into the
// caller's reused scratch slice. Extraction is the hot path, so the
// snapshot must not allocate per call; the scratch lives on the CALLING
// space, not the endpoint, because Procs of different services can be
// inside extractFor at once (one parked mid-Extract while a handler runs),
// while each service itself is single-threaded.
func (e *Endpoint) snapshotFor(caller *HandlerSpace) []int64 {
	if cap(caller.snap) < len(e.services) {
		caller.snap = make([]int64, len(e.services))
	}
	snap := caller.snap[:len(e.services)]
	for i, s := range e.services {
		snap[i] = s.stats.Bytes
	}
	return snap
}

// overShare reports whether any service other than caller has consumed
// more than share bytes since snap was taken.
func (e *Endpoint) overShare(snap []int64, caller *HandlerSpace, share int64) bool {
	for i, s := range e.services {
		if s != caller && s.stats.Bytes-snap[i] >= share {
			return true
		}
	}
	return false
}

// extractFor services the network on behalf of one service. The byte budget
// is charged against the CALLER's traffic only: the receive ring is strictly
// arrival-ordered, so packets belonging to co-resident services are still
// extracted — their handlers run, their streams advance — but those bytes
// are billed to THEIR accounts. A layer pacing a one-byte posted-receive
// budget (the §4.1 discipline) therefore cannot be starved by another
// service's bulk stream occupying the ring head. Fairness is round-robin in
// shares: each foreign service may consume at most the caller's own budget
// per call, so a paced Extract cannot be conscripted as an unbounded pump
// for a firehose aimed at someone else — past that share the call returns
// and the other service must drive its own progress.
//
// Over the FM 1.x adapter the per-packet quantum does not exist —
// FM_extract has no byte budget and drains everything pending (the very
// receiver-flow-control gap the paper charges against the 1.x interface) —
// so there pacing and the foreign-share bound are accounting-only: bytes
// are still billed to the right services, but one call may run every
// pending handler.
//
// w is the caller's wait when it is blocked in HandlerSpace.Wait or
// WaitPaced, nil for a plain Extract; it only tells the engine how long an
// empty poll may repeat. A caller looping on Extract retakes the snapshot and
// the packet meter of the fair-share loop below at every empty poll, so a
// repeated empty poll must not outlive them: while the loop runs,
// caller.sharing is set and caller.seen and caller.meter tell the wait what
// they were taken against (see waiting.Done).
func (e *Endpoint) extractFor(p *sim.Proc, caller *HandlerSpace, maxBytes int, w *flowctl.Waiter) int {
	if maxBytes <= 0 || len(e.services) == 1 {
		// Unlimited drain, or no co-residents to be fair to: the transport's
		// own budget semantics apply unchanged.
		return e.t.ExtractWait(p, maxBytes, w)
	}
	caller.sharing, caller.seen = true, e.consumed
	ownStart := caller.stats.Bytes
	snap := e.snapshotFor(caller)
	completed := 0
	for caller.stats.Bytes-ownStart < int64(maxBytes) {
		if e.overShare(snap, caller, int64(maxBytes)) {
			break // a foreign service has had its round-robin share
		}
		// The packet counter, not consumed bytes, is the progress meter: a
		// continuation packet absorbed by a handler parked mid-Receive moves
		// no byte counter until the Receive completes, and must not be
		// mistaken for an empty ring.
		caller.meter = e.packets()
		completed += e.t.ExtractWait(p, 1, w) // one-packet quantum
		if e.packets() == caller.meter {
			break // ring empty: nothing was extracted
		}
		if w != nil && w.Paused {
			// A paced caller woken at the end of its pause, with the meter
			// moved by a co-resident extractor meanwhile: the loop it runs
			// would be on its way into this function, not in the middle of it.
			break
		}
	}
	caller.sharing = false
	return completed
}

// HandlerSpace is one service's window onto a shared Endpoint. It satisfies
// Transport, so every upper layer binds to a space exactly as it would to a
// private transport — but handler IDs are namespaced into the service's
// slab, sends share the node's credit windows, and Extract is budget-fair
// across co-resident services.
type HandlerSpace struct {
	ep      *Endpoint
	name    string
	base    HandlerID
	stats   ServiceStats
	snap    []int64                         // extractFor scratch (a service is single-threaded)
	sharing bool                            // extractFor is in its fair-share loop; meter and seen are live
	meter   int64                           // ep.packets() before extractFor's current transport call
	seen    int64                           // ep.consumed when extractFor took its current snapshot
	until   Cond                            // what the service is blocked on in Wait or WaitPaced, else nil
	pace    Pace                            // how that wait paces itself (zero in Wait)
	wait    flowctl.Waiter                  // carries (*waiting)(hs) down to the engine's idle poll
	csPool  bufpool.FreeList[countedStream] // recycled per-message accounting wrappers
}

// Stats returns a copy of this service's share counters.
func (hs *HandlerSpace) Stats() ServiceStats { return hs.stats }

// Core exposes the engine's endpoint core: counters (Stats: Malformed,
// Orphaned, ...), credit ledger (FlowControl), frame-pool stats.
func (hs *HandlerSpace) Core() *flowctl.EndpointCore { return hs.ep.core }

// Node reports the endpoint's node ID.
func (hs *HandlerSpace) Node() int { return hs.ep.core.Node() }

// Host exposes the host model for cost charging.
func (hs *HandlerSpace) Host() *hostmodel.Host { return hs.ep.core.Host() }

// MTU reports the per-packet payload capacity.
func (hs *HandlerSpace) MTU() int { return hs.ep.core.MTU() }

// MaxMessage reports the largest message the transport carries.
func (hs *HandlerSpace) MaxMessage() int { return hs.ep.core.MaxMessage() }

// Register installs a handler under the service-local id. The wire ID is
// base+id; ids at or above SpaceSize panic, as does a duplicate.
//
// The counted-stream wrapper each message is served through recycles when
// the handler returns (handlers must not retain streams), so per-message
// accounting allocates nothing in steady state.
func (hs *HandlerSpace) Register(id HandlerID, fn Handler) {
	if id >= SpaceSize {
		panic(fmt.Sprintf("xport: handler id %d outside service %q slab (max %d)",
			id, hs.name, SpaceSize-1))
	}
	hs.ep.t.Register(hs.base+id, func(p *sim.Proc, s RecvStream) {
		hs.stats.Msgs++
		cs := hs.getCounted(s)
		fn(p, cs)
		hs.putCounted(cs)
	})
}

// getCounted draws a recycled counted-stream wrapper for one handler run.
// The free list is bounded at bufpool.DefaultCap: one wrapper per
// concurrently-running handler is live at a time, so a handful suffice.
func (hs *HandlerSpace) getCounted(s RecvStream) *countedStream {
	cs := hs.csPool.Get()
	if cs == nil {
		cs = &countedStream{hs: hs}
	}
	cs.s = s
	return cs
}

// putCounted recycles a wrapper once its handler has returned. Under the
// engine's poison mode the header scratch is overwritten, so a handler that
// kept its ReceiveHeader slice reads garbage, not a plausible header.
func (hs *HandlerSpace) putCounted(cs *countedStream) {
	cs.s = nil
	if hs.Poisoned() {
		for i := range cs.hdr {
			cs.hdr[i] = bufpool.PoisonByte
		}
	}
	hs.csPool.Put(cs)
}

// BeginMessage opens a message toward dst under the service-local handler
// id, mapped into the service's wire slab.
func (hs *HandlerSpace) BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error) {
	if h >= SpaceSize {
		return nil, fmt.Errorf("xport: handler id %d outside service %q slab (max %d)",
			h, hs.name, SpaceSize-1)
	}
	s, err := hs.ep.t.BeginMessage(p, dst, size, hs.base+h)
	if err == nil {
		hs.stats.SentMsgs++
		hs.stats.SentBytes += int64(size)
	}
	return s, err
}

// Extract services the shared attachment on behalf of this service; see
// Endpoint.extractFor for the budget-fairness contract.
func (hs *HandlerSpace) Extract(p *sim.Proc, maxBytes int) int {
	return hs.ep.extractFor(p, hs, maxBytes, nil)
}

// ExtractWait is Extract with the wait of a caller blocked on w.Until.
func (hs *HandlerSpace) ExtractWait(p *sim.Proc, maxBytes int, w *flowctl.Waiter) int {
	return hs.ep.extractFor(p, hs, maxBytes, w)
}

// Wait blocks the service in virtual time until until.Done(), extracting
// with budget maxBytes per call as Extract does. It is the wait loop of
// every upper layer — an MPI receive, a SHMEM quiet, a socket read — and it
// is exactly `for !until.Done() { hs.Extract(p, maxBytes) }`: same virtual
// times, same kernel events. The difference is host time: while nothing
// arrives, the empty polls of that loop are ticked off inside the kernel
// (flowctl.IdlePoll, sim.PollCycle) rather than by this Proc climbing down
// and up the stack every poll period. A caller with work of its own between
// polls wants WaitPaced.
func (hs *HandlerSpace) Wait(p *sim.Proc, maxBytes int, until Cond) {
	hs.await(p, maxBytes, until, Pace{})
}

// Pace is how a service with other work to do paces a wait (WaitPaced).
type Pace struct {
	// Gap is the pause after every extract; it must be positive.
	Gap sim.Time
	// Deadline, when nonzero, ends the wait unmet once the clock has reached
	// it: a give-up time, a drain window, the next scheduled arrival.
	Deadline sim.Time
	// Clamp, which needs a Deadline, shortens the last pause so the wait ends
	// at Deadline exactly — an arrival the caller must not oversleep — and
	// drops it altogether if the turn itself ran past. Unset, every pause is
	// a whole Gap and the wait ends on the first turn boundary at or after
	// Deadline.
	Clamp bool
	// Work, if not nil, is what the caller does each turn between the
	// extract and the pause.
	Work TurnWork
}

// TurnWork is a paced waiter's own work, done once per turn between the
// extract and the pause: a server flushing the replies its handlers queued.
type TurnWork interface {
	// Pending reports whether Do would do, or try, anything. Like Cond.Done
	// it is evaluated from the kernel's dispatcher: O(1), read-only, own
	// node's state — a false Pending is taken to stand until the node acts,
	// so that bears on results too. True when unsure.
	Pending() bool
	Do(p *sim.Proc)
}

// WaitPaced is the wait of a service that polls the network every so often
// rather than back to back. It is exactly
//
//	for !until.Done() && !(pace.Deadline > 0 && p.Now() >= pace.Deadline) {
//		hs.Extract(p, maxBytes)
//		pace.Work.Do(p)
//		p.Delay(pace.Gap) // cut to end at Deadline, if pace.Clamp
//	}
//	return until.Done()
//
// — same virtual times, same kernel events — but a turn that finds nothing
// to extract and nothing to do costs this Proc no coroutine switch: both its
// ticks, the end of the empty poll and the end of the pause, are taken by the
// kernel's dispatcher (sim.PollCycle), which re-arms one for the other for as
// long as nothing changes. The Proc is woken inside the extract and lands
// where that loop would be. Woken at the end of a poll, the extract returns
// as a plain Extract does and the turn goes on: work, pause. Woken at the
// end of a pause (Waiter.Paused), the turn is over and already paid for, and
// the loop goes to its head to test the condition and extract again.
//
// A loop that tests its condition between the poll and the pause (`Extract;
// if !done { Delay }`, as the benchmark drivers, internal/bench and
// examples/quickstart do) is a different schedule, not this wait, and keeps
// calling Extract.
func (hs *HandlerSpace) WaitPaced(p *sim.Proc, maxBytes int, until Cond, pace Pace) bool {
	if pace.Gap <= 0 {
		panic(fmt.Sprintf("xport: service %q on node %d: WaitPaced needs a positive gap", hs.name, hs.Node()))
	}
	return hs.await(p, maxBytes, until, pace)
}

// await is the one wait loop; Wait is its pace.Gap == 0 case, every tick of
// which is a poll.
func (hs *HandlerSpace) await(p *sim.Proc, maxBytes int, until Cond, pace Pace) bool {
	if hs.until != nil {
		panic(fmt.Sprintf("xport: service %q on node %d entered Wait twice; a service is single-threaded",
			hs.name, hs.Node()))
	}
	hs.until, hs.pace, hs.wait.Gap, hs.wait.Stands = until, pace, pace.Gap, pace.stands(until)
	met := until.Done()
	for ; !met && !pace.expired(p.Now()); met = until.Done() {
		hs.ep.extractFor(p, hs, maxBytes, &hs.wait)
		if pace.Gap == 0 {
			continue
		}
		if hs.wait.Paused {
			hs.wait.Paused = false
			continue
		}
		if pace.Work != nil {
			pace.Work.Do(p)
		}
		if d := pace.pause(p.Now()); d > 0 {
			p.Delay(d)
		}
	}
	hs.until = nil
	return met
}

// stands is how long an idle verdict of a wait on until stands
// (flowctl.Waiter.Stands): one tick if until reads other nodes; else until
// the node acts, and with a Deadline at most until the first instant whose
// tick waiting.Done ends — Deadline, or under Clamp the first at which a
// whole Gap no longer fits before it.
func (pc *Pace) stands(until Cond) sim.Time {
	if g, ok := until.(GlobalCond); ok && g.Global() {
		return sim.OneTick
	}
	switch {
	case pc.Deadline == 0:
		return 0
	case pc.Clamp:
		return max(pc.Deadline-pc.Gap+1, 1)
	}
	return pc.Deadline
}

// expired reports that the wait's deadline has been reached.
func (pc *Pace) expired(now sim.Time) bool { return pc.Deadline > 0 && now >= pc.Deadline }

// pause is the pause to take at now, a turn's extract and work done: Gap, or
// under Clamp what is left to Deadline if that is less — 0 for none.
func (pc *Pace) pause(now sim.Time) sim.Time {
	if pc.Clamp && now+pc.Gap > pc.Deadline {
		if now >= pc.Deadline {
			return 0
		}
		return pc.Deadline - now
	}
	return pc.Gap
}

// waiting is the condition a service in Wait hands the engine: stop
// repeating the empty poll once the caller's own condition holds — or, when
// the poll sits inside extractFor's fair-share loop, once anything has been
// extracted from, or consumed on, the endpoint since the loop last looked.
// The loop Wait stands for re-enters extractFor at every empty poll, and
// what the fair-share loop does next depends on the snapshot and meter it
// takes on the way in; they stay valid only while those counters stand
// still, so the first poll after they move must be a real one. Co-resident
// extractors and handlers finishing a delayed Receive move them without
// leaving anything in the ring. (The unbudgeted path keeps nothing across
// a poll.)
//
// A paced wait adds what its loop would act on at a tick besides the ring:
// work pending for the turn (a reply held back by a shut credit window is
// retried on exactly the ticks the loop would retry it), the deadline
// reached, and under Clamp a pause that would have to be cut short — the
// kernel only ever re-arms whole periods, the shortened one is the Proc's own
// Delay. All of it is asked at both ticks, though the loop looks at less at
// the end of a poll: a needless wake lands in the right place and costs one
// switch, a tick wrongly taken as idle is a bug.
type waiting HandlerSpace

func (w *waiting) Done() bool {
	e := w.ep
	if w.until.Done() || w.sharing && (e.packets() != w.meter || e.consumed != w.seen) {
		return true
	}
	pc := &w.pace
	if pc.Work != nil && pc.Work.Pending() {
		return true
	}
	if pc.Deadline == 0 {
		return false
	}
	// Dispatcher context: the clock is read off the node's own kernel.
	now := e.core.Host().K.Now()
	return pc.expired(now) || pc.pause(now) != pc.Gap
}

// Packets reports the shared endpoint's cumulative extracted-packet count.
func (hs *HandlerSpace) Packets() int64 { return hs.ep.packets() }

// Poisoned reports whether the engine's poison-on-recycle debug mode is on.
// Layers that keep their own recycled buffers (segment bodies, header
// scratch, staging) align their pools with it, so the poison guarantee
// covers every recycled-aliasing surface, not just frames.
func (hs *HandlerSpace) Poisoned() bool { return hs.ep.core.Poisoned() }

// consume bills n consumed payload bytes to the service.
func (hs *HandlerSpace) consume(n int) {
	hs.stats.Bytes += int64(n)
	hs.ep.consumed += int64(n)
}

// MaxHeader is the most a handler may pull with ReceiveHeader: the largest
// wire header of any layer, MPI-FM's 24 bytes.
const MaxHeader = 24

// countedStream attributes a message's consumed bytes to its service. It is
// recycled per handler run, and so is the header scratch it carries: two
// handlers of one service parked mid-message at once hold two wrappers.
type countedStream struct {
	s   RecvStream
	hs  *HandlerSpace
	hdr [MaxHeader]byte
}

// ReceiveHeader receives the first n bytes of s — a layer's wire header —
// into scratch owned by this handler run and returns them; bytes the message
// does not carry read as zero. The slice is valid until the handler returns.
// It is how a handler pulls its header without a per-message allocation (an
// array of its own would escape through the RecvStream interface). s must be
// the stream a HandlerSpace handed the handler, and n at most MaxHeader.
func ReceiveHeader(p *sim.Proc, s RecvStream, n int) []byte {
	cs := s.(*countedStream)
	if n > len(cs.hdr) {
		panic(fmt.Sprintf("xport: header of %d bytes exceeds the %d-byte handler scratch", n, len(cs.hdr)))
	}
	h := cs.hdr[:n]
	clear(h[cs.Receive(p, h):])
	return h
}

func (c *countedStream) Src() int       { return c.s.Src() }
func (c *countedStream) Length() int    { return c.s.Length() }
func (c *countedStream) Remaining() int { return c.s.Remaining() }

func (c *countedStream) Receive(p *sim.Proc, buf []byte) int {
	n := c.s.Receive(p, buf)
	c.hs.consume(n)
	return n
}

func (c *countedStream) ReceiveDiscard(p *sim.Proc, n int) int {
	got := c.s.ReceiveDiscard(p, n)
	c.hs.consume(got)
	return got
}

// Spaces registers one service on every endpoint and returns its windows,
// indexed by node.
func Spaces(eps []*Endpoint, service string) []*HandlerSpace {
	sp := make([]*HandlerSpace, len(eps))
	for i, ep := range eps {
		sp[i] = ep.Register(service)
	}
	return sp
}
