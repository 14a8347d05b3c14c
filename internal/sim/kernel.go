// Package sim is a deterministic discrete-event simulation kernel.
//
// Simulated activities are written as ordinary sequential Go code running in
// Procs (one coroutine each, taken from a process-wide free list at the
// Proc's first wake and returned when it ends), but the kernel guarantees
// that at most one Proc executes at any instant and that Procs are scheduled
// strictly in virtual time order (FIFO among equal timestamps). Shared
// simulation state therefore needs no locking, and every run is bit-for-bit
// reproducible.
//
// One kernel per simulation; replicas are par's. A simulation never spans
// threads: every host, NIC, switch and link of a machine runs on one
// Kernel, so no model code takes a lock and none imports sync. Many
// independent simulations run side by side only as replicas, each on its
// own Kernel, under internal/par; the one state their kernels share is the
// process-wide coroutine free list, the only lock in this package.
//
// The dispatcher owns three things beyond popping the next event. The first
// two run outside a Proc's own coroutine, on whichever one holds the control
// token, because the dispatcher runs them itself. Neither is an exception to
// the guarantee — the token is still held by exactly one goroutine — they
// just spare an event its coroutine switch:
//
//   - The Idler of a Proc blocked in PollCycle: an idle tick, an empty poll
//     or the pause a self-paced poller takes after one, is re-armed by the
//     dispatcher. An Idler only reads.
//
//   - A Machine (SpawnMachine): a Proc with no coroutine at all, written as
//     a run-to-completion Step that arms one wake — StartDelay, StartRecv,
//     StartSend, StartAcquire, the halves of Delay, Chan.Recv, Chan.Send and
//     Resource.Acquire that come before their park — and returns where a
//     goroutine Proc would park. It waits in the same queues and is woken by
//     the same events, so a loop rewritten as a Machine leaves the (t, seq)
//     schedule and Events() exactly as they were. The per-packet service
//     loops (NIC firmware, switch forwarders, the link they transmit on) are
//     Machines, and a new one should be too: SpawnDaemon is for loops that
//     run user code that blocks (fm2's handler workers), and lanai.go and
//     netsim.go call it nowhere.
//
// The third is where poll ticks wait: not in the event queue but in one FIFO
// lane per period beside it. A tick of period d is queued at now+d with the
// next seq, and since now never goes back and seq only grows, each lane is
// already in (t, seq) order; the dispatcher takes the least of the event
// queue's least and the lane heads, so events run in exactly the order one
// queue would pop them, without moving hundreds of re-armed ticks through it.
//
// The event queue is a monotone radix queue (eventQueue), not a heap, and it
// rests on the same two facts: no event is queued before now, which never
// goes back, and seq grows with every event queued. Events of equal time
// therefore share a bucket in seq order, the queue pops the total (t, seq)
// order any correct priority queue would, and the schedule does not depend
// on how the queue is built.
//
// One FIFO serves the lanes and every wait queue alike: Queue (fifo.go) is
// a lane's ring, a Chan's buffer and its parked senders and receivers, and
// the waiters of a Signal or a Resource — and, above sim, every layer's
// queue. Rotation re-arms lane ticks in place on the Queue's own fields.
//
// A lane tick may be dormant. A Proc tagged with the node it acts for
// (ActsFor), whose Idler says its verdict stands until that node acts, has
// its ticks re-armed from the lane slot alone — no Idle call, no read of the
// Proc, no coroutine — for as long as no event of its node and no global
// event has run since the verdict (rotate). For that the dispatcher notes,
// per domain, the seq at which an event of it last ran: one store per
// dispatched event. Dormant ticks are rotated, not elided: each is the idle
// path's re-arm at the same (t, seq), so the schedule and Events() are
// untouched and Census counts them apart.
//
// The control token moves by coroutine switch (see Kernel). No channel
// carries it and kernel.go starts no goroutine; building a simulation starts
// none either, because a Proc gets its coroutine at its first wake.
//
// Every dispatcher shortcut — idle ticks, paced ticks, lanes, dormant ticks,
// Machines, lazy launch — is defined as the code it stands for, and
// differential_test.go holds it to that code: one generator draws seeded
// programs, one interpreter runs each fused and written out, and every
// resumption must match at (t, seq). A new shortcut is a new spelling in
// that interpreter plus a coverage floor, not a new harness.
//
// Every park site names what the Proc waits on (Wait). Signal, Chan and
// Resource name themselves; a layer that parks for a reason of its own — a
// credit, the rest of a message — names it with WaitOn before it parks; an
// Idler is a Wait, so every PollCycle names its poll; and a Delay is named by
// its pending wake. HangReport, the one hang report (ErrDeadlock renders it, a
// watchdog reads it), is built from these names and nothing else, so a new
// blocking primitive or park site names its wait too.
//
// The kernel is the substitute for real hardware concurrency in this
// reproduction: host CPUs, NIC firmware, DMA engines, and wires are all Procs
// and Resources whose interleaving is governed by explicit virtual-time
// charges instead of wall-clock execution speed.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"runtime/debug"
	"sync"
)

// procKilled is the sentinel panic used to unwind Procs during shutdown.
type procKilled struct{}

// ErrDeadlock is returned by Run when live Procs remain but no event can
// ever wake them.
var ErrDeadlock = errors.New("sim: deadlock: live processes with empty event queue")

// ErrStopped is returned by Run when the simulation was halted by stop.
var ErrStopped = errors.New("sim: stopped")

type event struct {
	t    Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	proc *Proc  // proc to wake
	gen  uint64 // wake generation; stale events are dropped
}

// eventQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan,
// JACM 1990) that pops in (t, seq) order. It relies on two facts of the
// kernel: no push is earlier than the time of the last event popped (last;
// wakeAt holds pushes to now, and now never goes back), and seq grows with
// push order. An event waits in bucket bits.Len64(t^last), a FIFO; full marks
// the buckets that hold events, and each bucket knows its least event.
// Bucket 0 holds the events at last, in seq order. When it is empty, pop
// sets last to the least time of the lowest full bucket b, takes out b's
// least event and moves the rest, in order, into the buckets below b, all
// empty at that moment; an event in a bucket above b stays where it is,
// since it differs from the old and the new last first at the same bit.
//
// So events of equal t always share a bucket, and every bucket stays in seq
// order: a push has the greatest seq so far, and a bucket is refilled from
// above only when it is empty. (t, seq) is a TOTAL order — seq is unique —
// so this queue pops the identical sequence any correct priority queue
// would, and the schedule cannot depend on how it is built. Nothing is
// sifted: an event moves down at most 63 times, and on average one to five
// times in the repo benchmark's workloads.
//
// The buckets are linked lists through one node arena with a free list, so
// the arena grows the way a heap's slice would and a steady state of pushes
// and pops allocates nothing. Node 0 is a sentinel: link 0 is none, and the
// zero eventQueue is empty. The dispatcher asks for the least event at every
// event it runs, lane ticks included, so the queue keeps it at hand.
type eventQueue struct {
	last  Time   // the time of the last event popped
	full  uint64 // bit i: bucket i holds events
	mt    Time   // the least pending (t, seq), while full is not 0
	ms    uint64
	free  int32 // the arena's free list
	b     [64]bucket
	nodes []qnode
}

// bucket is one FIFO of the queue, and the node of its least event: the
// first to arrive at its least time, or bucket 0's head.
type bucket struct{ head, tail, least int32 }

type qnode struct {
	event
	next int32
}

// len counts the pending events (Census).
func (q *eventQueue) len() (n int) {
	for range q.all {
		n++
	}
	return n
}

// min reports the least pending (t, seq), or ok false when the queue is
// empty.
func (q *eventQueue) min() (t Time, seq uint64, ok bool) {
	return q.mt, q.ms, q.full != 0
}

// push queues e, which must not be earlier than the last event popped.
func (q *eventQueue) push(e event) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, qnode{}) // the sentinel
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, qnode{})
	}
	if q.full == 0 || e.t < q.mt { // an equal t has a later seq
		q.mt, q.ms = e.t, e.seq
	}
	nd := &q.nodes[i]
	nd.event = e
	q.link(i, nd)
}

// link appends node i, nd, to its bucket.
func (q *eventQueue) link(i int32, nd *qnode) {
	k := bits.Len64(uint64(nd.t^q.last)) & 63 // below 64 anyway: times are not negative
	q.full |= 1 << k
	b := &q.b[k]
	if b.head == 0 {
		b.head, b.least = i, i
	} else if q.nodes[b.tail].next = i; nd.t < q.nodes[b.least].t { // an equal t has a later seq
		b.least = i
	}
	b.tail = i
}

// pop takes the least pending event; the queue must not be empty. It is
// the head of the lowest full bucket when that is bucket 0 or holds no
// other event; otherwise spill finds it.
func (q *eventQueue) pop() (*Proc, uint64) {
	q.last = q.mt // as it was, when the least event is in bucket 0
	k := uint(bits.TrailingZeros64(q.full)) & 63
	b := &q.b[k]
	i := b.head
	if i == b.tail {
		q.full &^= 1 << k
		b.head = 0
	} else if k == 0 {
		b.head = q.nodes[i].next
		b.least = b.head
	} else {
		i = q.spill(k)
	}
	nd := &q.nodes[i]
	p, gen := nd.proc, nd.gen
	nd.proc = nil // the GC may reclaim an ended Proc
	nd.next, q.free = q.free, i
	if q.full != 0 {
		h := &q.nodes[q.b[bits.TrailingZeros64(q.full)&63].least]
		q.mt, q.ms = h.t, h.seq
	}
	return p, gen
}

// spill empties bucket k, the lowest full one, whose least time is now
// last: it takes out the least event and returns it, and moves the others,
// in order, into the buckets below k, all empty until now.
func (q *eventQueue) spill(k uint) int32 {
	b := &q.b[k]
	i, end, least := b.head, b.tail, b.least
	q.full &^= 1 << k
	b.head = 0
	for {
		nd := &q.nodes[i]
		next := nd.next
		if i != least {
			q.link(i, nd)
		}
		if i == end {
			return least
		}
		i = next
	}
}

// all yields every pending event, bucket by bucket.
func (q *eventQueue) all(yield func(*event) bool) {
	for k := range q.b {
		if q.full&(1<<k) == 0 {
			continue
		}
		for i := q.b[k].head; ; i = q.nodes[i].next {
			if !yield(&q.nodes[i].event) {
				return
			}
			if i == q.b[k].tail {
				break
			}
		}
	}
}

// lane is the FIFO of poll ticks armed with one period d (Kernel.tick). Each
// is queued at now+d with the next seq; now never goes back and seq only
// grows, so the lane is already in (t, seq) order and its head is its least
// event. A drained lane keeps its ring for the next idle stretch.
type lane struct {
	d Time
	Queue[tick]
}

// tick is a lane slot: a poll tick's wake and, while it is dormant, all that
// re-arming it takes without its Proc (see rotate). 48 bytes, against the
// event queue's 32-byte event.
type tick struct {
	t    Time
	seq  uint64
	proc *Proc
	gen  uint64
	// reach is nonzero while the tick is dormant: the Idle verdict it carries
	// stands for ticks before reach, until an event of dom or a global one
	// runs. dom is the Proc's domain, back the lane of the cycle's other
	// period and parity the pollTick of this tick, copied at arming.
	reach  Time
	dom    int32
	back   uint16
	parity uint8
}

// Kernel owns the virtual clock and the event queue.
// The zero value is not usable; call NewKernel.
//
// Control transfer is by COROUTINE SWITCH: every goroutine Proc runs on a
// coroutine (iter.Pull) that Run's goroutine resumes, one driver loop that
// never passes the token through the Go scheduler. A parking (or finishing)
// Proc runs the dispatch loop itself; when the next event is its own wake it
// carries on without a switch, otherwise it names the next event's Proc in
// handoff and yields to the driver, which resumes that one. Event order is
// untouched; only how the token travels changes, so results stay bit-for-bit
// identical. Exactly one coroutine or the driver holds the token at any
// time, so kernel state never sees concurrent access; the coroutine switches
// provide the happens-before edges.
type Kernel struct {
	now     Time
	eq      eventQueue
	lanes   []lane // poll ticks, one FIFO per period, beside the queue
	seq     uint64
	act     []uint64  // per domain: seq when an event of the domain last ran (see ActsFor)
	act0    [8]uint64 // act's first backing: a small cluster's kernel allocates none
	census  Census    // dispatched events by kind
	handoff *Proc     // set by a yielding coroutine: the Proc run resumes next, nil to end the run
	procs   map[*Proc]struct{}
	live    int
	stopped bool
	failure error
	horizon Time // 0 = unbounded
}

// NewKernel returns an empty simulation at virtual time zero.
func NewKernel() *Kernel {
	k := &Kernel{procs: make(map[*Proc]struct{})}
	k.act = k.act0[:domNode]
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// noEvent and inQueue are what next reports in place of a lane index.
const (
	noEvent = -2
	inQueue = -1
)

// next finds the least pending event across the event queue and the lane
// heads: its time and the index of the lane holding it — inQueue for the
// event queue, noEvent when nothing is queued.
func (k *Kernel) next() (t Time, from int) {
	t, seq, ok := k.eq.min()
	if from = noEvent; ok {
		from = inQueue
	}
	for i := range k.lanes {
		if l := &k.lanes[i]; l.n > 0 {
			if h := l.Front(); from == noEvent || before(h.t, h.seq, t, seq) {
				t, seq, from = h.t, h.seq, i
			}
		}
	}
	return t, from
}

// before is the (t, seq) order every queue pops in.
func before(t0 Time, s0 uint64, t1 Time, s1 uint64) bool {
	return t0 < t1 || t0 == t1 && s0 < s1
}

// Live reports the number of live non-daemon Procs.
func (k *Kernel) Live() int { return k.live }

// Events reports the cumulative count of events scheduled since creation —
// the denominator of the wall-clock events/sec metric the perf suite tracks.
func (k *Kernel) Events() uint64 { return k.seq }

// Census splits Events() by what the dispatcher did with each event. Its
// counts always sum to Events().
type Census struct {
	Resumes uint64 // a goroutine Proc resumed (from the event queue or a lane)
	Steps   uint64 // a Machine stepped
	Idle    uint64 // a poll tick re-armed on an Idle call
	Dormant uint64 // a dormant poll tick re-armed without one (rotate)
	Stale   uint64 // a wake dropped: its Proc had ended or been woken another way
	Queued  uint64 // scheduled and not yet dispatched
}

// Census reports the kernel's dispatch census so far.
func (k *Kernel) Census() Census {
	c := k.census
	c.Queued = uint64(k.eq.len())
	for i := range k.lanes {
		c.Queued += uint64(k.lanes[i].n)
	}
	return c
}

// stop halts the simulation: Run returns ErrStopped after unwinding all
// Procs. Safe to call from inside a Proc.
func (k *Kernel) stop() { k.stopped = true }

// tick arms p's next poll tick, in the lane of period p.pollTick — the one
// place a tick is queued, so none ever enters the event queue. It takes its seq at
// this moment, exactly as the Delay it stands for would have. With a reach
// (an Idle verdict, see Idler) and a Proc that acts for a node, the tick is
// armed dormant: the verdict rides along in the slot.
func (k *Kernel) tick(p *Proc, reach Time) {
	l := &k.lanes[p.pollLane[p.pollTick]]
	s := l.Push()
	s.t, s.seq, s.proc, s.gen = k.now+l.d, k.seq, p, p.wakeGen
	k.seq++
	if reach <= 0 || p.dom < domNode {
		s.reach = 0
		return
	}
	s.reach, s.dom, s.back, s.parity = reach, p.dom, p.pollLane[p.pollTick^1], p.pollTick
	p.dormant = true
}

// lane finds the index of the lane for period d, or opens one. Real runs
// have a handful of periods, so a scan is all the index they need.
func (k *Kernel) lane(d Time) uint16 {
	for i := range k.lanes {
		if k.lanes[i].d == d {
			return uint16(i)
		}
	}
	if len(k.lanes) == maxLanes {
		panic(fmt.Sprintf("sim: more than %d distinct poll periods", maxLanes))
	}
	k.lanes = append(k.lanes, lane{d: d})
	return uint16(len(k.lanes) - 1)
}

// maxLanes bounds the distinct poll periods of one kernel: a tick names its
// lanes in 16 bits.
const maxLanes = 1 << 16

// wakeAt schedules p to resume at absolute time t with its current wake
// generation. Internal: synchronization primitives use this. A wake before
// now would misorder the event queue, whose pushes are never earlier than
// the last event it popped, so it is refused.
func (k *Kernel) wakeAt(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: wake at %v before now %v in proc %q", t, k.now, p.name))
	}
	if p.dormant {
		k.act[p.dom] = k.seq // a kick: the dormant tick is over (wakeDormant)
	}
	k.eq.push(event{t: t, seq: k.seq, proc: p, gen: p.wakeGen})
	k.seq++
}

// wakeNow schedules p to resume at the current time (after any events
// already queued for this instant, preserving FIFO determinism).
func (k *Kernel) wakeNow(p *Proc) { k.wakeAt(k.now, p) }

// fail records a Proc panic and stops the run.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
	k.stopped = true
}

// failProc records a panic raised by p's code — its body, its Machine's Step,
// its Idler — as p's failure, whichever goroutine it surfaced on.
func (k *Kernel) failProc(p *Proc, r any) {
	k.fail(fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack()))
}

// Run drives the simulation until the event queue is empty, stop is called,
// or a Proc panics. It returns nil on a clean drain with no live Procs,
// ErrDeadlock if live Procs remain unwakeable, ErrStopped after stop, or the
// wrapped panic of a failed Proc.
//
// A Proc's function that calls runtime.Goexit (as t.FailNow does) takes the
// goroutine that called Run with it: that goroutine exits, running its
// deferred calls, and Run does not return. The kernel is left stopped with
// its other Procs parked; Shutdown, from any goroutine, unwinds them.
func (k *Kernel) Run() error {
	k.driverActs()
	return k.run(0)
}

// RunUntil drives the simulation but stops advancing the clock past t;
// events at exactly t still execute.
func (k *Kernel) RunUntil(t Time) error {
	k.driverActs()
	return k.run(t)
}

// driverActs marks a return of the control token to the caller of Run: what
// it changed between two runs, outside any event, is a global event's
// doing, so no dormant tick outlives it.
func (k *Kernel) driverActs() { k.act[domGlobal] = k.seq }

func (k *Kernel) run(horizon Time) error {
	k.horizon = horizon
	for p := k.dispatch(); p != nil; p = k.handoff {
		k.resume(p)
	}
	if horizon != 0 && k.failure == nil && !k.stopped {
		// Bounded run that hit the horizon or drained its queue early: a
		// resumable pause, not a deadlock. Procs stay parked; the caller may
		// schedule more events and Run again, or call Shutdown to unwind.
		return nil
	}
	defer k.unwindAll()
	if k.failure != nil {
		return k.failure
	}
	if k.stopped {
		return ErrStopped
	}
	if k.live > 0 {
		return fmt.Errorf("%w:\n%v", ErrDeadlock, k.HangReport())
	}
	return nil
}

// dispatch advances the simulation until the next event wakes a goroutine
// Proc, and returns that Proc, or until it reaches a terminal state (stop,
// drained queue, horizon), and returns nil. It runs on whichever goroutine
// holds the control token: Run's, or the coroutine of a Proc that is parking
// or finishing.
func (k *Kernel) dispatch() *Proc {
	for !k.stopped {
		t, from := k.next()
		if from == noEvent {
			return nil
		}
		if k.past(t) {
			// Past the horizon: the event stays queued (seq preserved) and
			// the clock stops here — or where it is, for a horizon already
			// behind it: the clock never goes back.
			k.now = max(k.now, k.horizon)
			return nil
		}
		k.now = t
		var p *Proc
		if from >= 0 {
			if p = k.laneTick(from); p == nil {
				continue
			}
		} else if q, gen := k.eq.pop(); q.done || gen != q.wakeGen {
			k.census.Stale++ // stale wakeup (proc already woken another way)
			continue
		} else if p = q; p.dormant {
			k.wakeDormant(p)
		}
		if p.poll != nil {
			if reach := k.idle(p); reach != Busy {
				// An idle tick of a Proc in PollCycle: re-arm its wake with the
				// cycle's other period exactly as the Proc's own Delay would
				// have — same time, the seq consumed at this same moment,
				// wakeGen stepped as park does on resume — without switching
				// to its coroutine. An Idler only reads: this is no activity.
				p.wakeGen++
				p.pollTick ^= 1
				k.tick(p, reach)
				k.census.Idle++
				continue
			}
		}
		k.act[p.dom] = k.seq
		if p.mach != nil {
			if _, first := p.mach.(procFunc); !first {
				// A Machine has no coroutine to switch to: its wake is one
				// call, with wakeGen stepped as park does on resume.
				p.wakeGen++
				k.census.Steps++
				k.step(p)
				continue
			}
		}
		k.census.Resumes++
		return p // a goroutine Proc; at its first wake, resume gives it its coroutine
	}
	return nil
}

// past reports whether an event at t lies beyond the run's horizon.
func (k *Kernel) past(t Time) bool {
	return k.horizon != 0 && t > k.horizon
}

// laneTick takes the head tick of lane i, the least pending event, and
// returns its Proc to wake, or nil. A dormant tick whose verdict still stands
// is rotated instead (rotate); one whose verdict has lapsed first hands its
// Proc the wake generation and period the rotations left it at.
func (k *Kernel) laneTick(i int) *Proc {
	l := &k.lanes[i]
	s := l.Front()
	p := s.proc
	if s.reach != 0 {
		if k.quiet(s) {
			k.rotate(i)
			return nil
		}
		p.wakeGen, p.pollTick, p.dormant = s.gen, s.parity, false
	}
	gen := s.gen
	l.Pop()
	if p.done || gen != p.wakeGen {
		k.census.Stale++
		return nil
	}
	return p
}

// quiet reports that dormant tick s may be rotated: its verdict reaches past
// it, and no event of its Proc's domain or a global one has run since it
// was armed (which took seq s.seq: anything that ran later found k.seq past
// it).
func (k *Kernel) quiet(s *tick) bool {
	return s.t < s.reach && k.act[s.dom] <= s.seq && k.act[domGlobal] <= s.seq
}

// rotate re-arms the dormant head of lane i, which quiet admits and which is
// the least pending event inside the horizon, and then each head after it
// for as long as it too is all three. A rotation is the idle path of wake
// for a Proc whose Idle verdict cannot have changed since it was given: the
// same re-arm at the same (t, seq), with wakeGen and pollTick stepped in the
// slot instead of on the Proc — no Idle call, no Proc read, no coroutine. The
// bound is the least event outside the lane or the horizon, lowered whenever
// a re-arm opens another lane's head.
func (k *Kernel) rotate(i int) {
	l := &k.lanes[i]
	bt, bs, ok := k.eq.min()
	if !ok {
		bt = Quiet // no event runs at Quiet
	}
	for j := range k.lanes {
		if o := &k.lanes[j]; j != i && o.n > 0 && before(o.Front().t, o.Front().seq, bt, bs) {
			bt, bs = o.Front().t, o.Front().seq
		}
	}
	if k.horizon != 0 && before(k.horizon, ^uint64(0), bt, bs) {
		bt, bs = k.horizon, ^uint64(0) // RunUntil runs the events at its horizon
	}
	for {
		s := l.Front()
		k.now = s.t
		if shadow != nil {
			shadow(k, s)
		}
		var n *tick
		if j := int(s.back); j == i {
			// Pop and push in one lane, in place on the ring: the slot the
			// push fills is the tail after the pop, and the head itself when
			// the ring is full. A vacated head holds no Proc, as after Pop.
			if n = &l.ring[(l.head+l.n)&(len(l.ring)-1)]; n != s {
				*n = *s
				s.proc = nil
			}
			l.head = (l.head + 1) & (len(l.ring) - 1)
			n.t += l.d
		} else {
			dst := &k.lanes[j]
			n = dst.Push()
			*n = *s
			l.Pop()
			n.t, n.back = n.t+dst.d, uint16(i)
			if dst.n == 1 && before(n.t, k.seq, bt, bs) { // another lane's new head
				bt, bs = n.t, k.seq
			}
		}
		n.seq, n.gen, n.parity = k.seq, n.gen+1, n.parity^1
		k.seq++
		k.census.Dormant++
		if l.n == 0 {
			return
		}
		if h := l.Front(); !before(h.t, h.seq, bt, bs) || !k.quiet(h) {
			return
		}
	}
}

// wakeDormant hands a dormant Proc woken other than by its tick — a kick
// through a Signal or Chan it registered with before it began to poll — the
// wake generation and period its tick has reached, and leaves that tick an
// ordinary one: stale now that the kick resumes the Proc, as in the loop the
// wait stands for. The kick's wakeAt marked the Proc's domain active, so the
// tick has not been rotated since: had it popped first, it would have left
// dormancy and stepped the wake generation past the kick's.
func (k *Kernel) wakeDormant(p *Proc) {
	s := k.dormantTick(p)
	p.wakeGen, p.pollTick, p.dormant = s.gen, s.parity, false
	s.reach = 0
}

// dormantTick finds the tick of a dormant Proc: the one slot of its two
// lanes that holds it with a reach.
func (k *Kernel) dormantTick(p *Proc) *tick {
	for _, i := range p.pollLane {
		l := &k.lanes[i]
		for n := 0; n < l.n; n++ {
			if s := &l.ring[(l.head+n)&(len(l.ring)-1)]; s.proc == p && s.reach != 0 {
				return s
			}
		}
	}
	panic(fmt.Sprintf("sim: proc %q is dormant with no dormant tick", p.name))
}

// shadow, when set, is called at every dormant rotation with the tick about
// to be re-armed, before it is. This package's tests set it to ask the Idler
// whether it agrees; nothing else does.
var shadow func(k *Kernel, s *tick)

// resume runs p on its coroutine until p passes the token on: it parks, with
// handoff set to the next Proc, or it ends. A Proc at its first wake takes a
// coroutine from the free list; one that ended gives its coroutine back.
func (k *Kernel) resume(p *Proc) {
	c := p.co
	if c == nil {
		c = takeCoroutine()
		c.p, p.co = p, c
	}
	c.next()
	if c.p == nil {
		freeCoroutine(c)
	}
}

// Idler is the wait condition of a Proc blocked in PollCycle. Idle reports
// whether the Proc, resumed at the current instant, would find nothing to do
// but start the cycle's next period, and for how long that verdict stands:
//
//   - Busy: it would find work; the Proc is resumed.
//   - OneTick: it is idle at this tick; ask again at the next.
//   - Quiet: it is idle until an event of the node the Proc acts for, or a
//     global event, runs (see ActsFor).
//   - a time t > 0: the same, or until the clock reaches t, whichever first.
//
// It is called in dispatcher context — on whichever goroutine holds the
// control token, with the clock at the tick — so it must only read, and only
// state the polling Proc itself could read at that instant. Answering Busy
// when there was in fact nothing to do is always safe; it costs one
// coroutine switch. A verdict that claims to stand longer than it does is a
// wrong schedule: while it stands, the dispatcher re-arms the Proc's ticks
// without asking (rotate). As a Wait it names the poll for the hang report.
type Idler interface {
	Idle() Time
	Wait
}

// The verdicts of an Idler besides a time (see Idler).
const (
	Busy    Time = 0
	OneTick Time = -1
	Quiet   Time = 1<<63 - 1
)

// idle evaluates p's wait condition at a poll tick. A panic in it is p's
// failure, as it would have been had p evaluated the condition itself: the
// run is failed in p's name and the tick reported Busy, so p is resumed into
// a stopped kernel and unwinds.
func (k *Kernel) idle(p *Proc) (reach Time) {
	defer func() {
		if r := recover(); r != nil {
			k.failProc(p, r)
			reach = Busy
		}
	}()
	return p.poll.Idle()
}

// Machine is the body of a goroutine-less Proc. Step runs in dispatcher
// context each time the Proc is woken — first at its spawn instant — and must
// return, never block: it does what a goroutine Proc would do between two
// parks, ends by arming exactly one wake (a Start* call that reported it
// queued, or StartDelay), and keeps its place in its own fields. It may touch
// whatever a Proc of its kernel may.
type Machine interface {
	Step(p *Proc)
}

// step runs one wake of a Machine. A panic in it fails the run in the Proc's
// name, exactly as the goroutine it replaces would have.
func (k *Kernel) step(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			p.done = true
			delete(k.procs, p)
			k.failProc(p, r)
		}
	}()
	p.mach.Step(p)
}

// Shutdown terminates every still-parked Proc so its coroutine returns to the
// free list. Call after a bounded run (RunUntil) that will not be resumed;
// the kernel is unusable afterwards.
func (k *Kernel) Shutdown() { k.unwindAll() }

// unwindAll terminates every still-blocked Proc. It runs with the control
// token held (at the end of run, or from Shutdown), so no dispatcher is
// active. Each parked Proc is resumed into the stopped kernel, where park
// panics procKilled; its cleanup dispatches into the stopped kernel, which
// ends at once, and it yields back here.
func (k *Kernel) unwindAll() {
	k.stopped = true
	for p := range k.procs {
		if p.done {
			continue
		}
		p.wakeGen++ // invalidate pending events
		if p.mach != nil {
			// No coroutine to resume — a Machine never has one, a Proc that
			// was never started has none yet: retiring it is bookkeeping.
			p.done = true
			if !p.daemon {
				k.live--
			}
			delete(k.procs, p)
			continue
		}
		k.resume(p)
	}
}

// Proc is a simulated sequential process. All blocking methods must be
// called only from the Proc's own function; a Machine's Proc has none and
// may only use the Start* halves.
type Proc struct {
	k       *Kernel
	name    string
	co      *coroutine // from the first wake until the Proc ends
	wakeGen uint64
	done    bool
	daemon  bool

	// Set while the Proc is blocked in PollCycle: the dispatcher takes its
	// idle ticks (see dispatch). pollTick indexes the period whose tick is
	// pending and pollLane the lanes of the two periods. While the pending
	// tick is dormant, the tick, not the Proc, holds the wake generation and
	// pollTick (see rotate).
	pollTick uint8
	dormant  bool
	dom      int32 // the domain the Proc acts for (ActsFor)
	poll     Idler
	pollLane [2]uint16

	// Non-nil while the Proc has no coroutine: a Machine, whose Step the
	// dispatcher calls at every wake (SpawnMachine), or — until its first wake
	// — the procFunc a goroutine Proc will run (SpawnAt, coroutine.loop).
	mach Machine

	// What the Proc is parked on, for the hang report; the dispatcher never
	// reads it (see Wait).
	wait Wait
}

// Name reports the Proc's debug name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Fabric is the node a Proc acts for when it acts for none: a switch
// forwarder, which writes links, switch queues and the wire side of a NIC,
// never state an Idler reads (ActsFor).
const Fabric = -1

// Domains: what an event's Proc acts for. An untagged Proc is global; node n
// is domNode+n.
const (
	domGlobal = iota
	domFabric
	domNode
)

// ActsFor tags p with the node it acts for: node's host Procs, its handler
// workers and its NIC firmware, or Fabric. Call it right after spawning p.
//
// The tag is a promise about writes: p changes no state that the Idler of a
// Proc acting for another node reads. An untagged Proc makes none, and every
// event it runs counts as global. The dispatcher records, per domain, when
// an event of it last ran; a Proc that acts for a node and is idle in
// PollCycle with a verdict that stands (Idler) goes dormant, and its ticks
// are re-armed without asking until an event of its node or a global one
// runs (rotate). An untagged poller never goes dormant: its node's events
// would not end its dormancy.
func (p *Proc) ActsFor(node int) {
	d := domFabric
	if node != Fabric {
		if node < 0 {
			panic(fmt.Sprintf("sim: proc %q cannot act for node %d", p.name, node))
		}
		d = domNode + node
	}
	if k := p.k; d >= len(k.act) {
		k.act = append(k.act, make([]uint64, d+1-len(k.act))...)
	}
	p.dom = int32(d)
}

// Spawn creates a Proc that begins executing fn at the current virtual time
// (after already-queued events at this instant).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnDaemon creates a service Proc (an FM 2.x handler worker) that
// is expected to block forever; daemons do not count toward deadlock
// detection and are unwound silently when the simulation drains.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.SpawnAt(k.now, name, fn)
	p.daemon = true
	k.live--
	return p
}

// SpawnMachine creates a daemon Proc without a goroutine: the dispatcher
// calls m.Step(p) at each of its wakes, the first queued here exactly where
// SpawnDaemon queues its Proc's start.
func (k *Kernel) SpawnMachine(name string, m Machine) *Proc {
	p := &Proc{k: k, name: name, daemon: true, mach: m}
	k.procs[p] = struct{}{}
	k.wakeAt(k.now, p)
	return p
}

// SpawnAt creates a Proc that begins executing fn at absolute time t. It
// takes its coroutine at that first wake, not here: spawning costs an
// allocation and an event, and a Proc unwound before it ever starts costs no
// coroutine at all.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, mach: procFunc(fn)}
	k.procs[p] = struct{}{}
	k.live++
	k.wakeAt(max(t, k.now), p)
	return p
}

// procFunc is a goroutine Proc's function on its way to its coroutine: it
// waits in the mach field until the first wake, where the coroutine resume
// hands the Proc takes it out (coroutine.loop); dispatch never steps it.
type procFunc func(p *Proc)

func (procFunc) Step(p *Proc) { panic("sim: a Proc not yet started has no Step") }

// A coroutine runs goroutine Procs, one after another, each from its first
// wake to its end. Creating one (iter.Pull and its closures) costs 14
// mallocs against the 2 of a goroutine and a channel, so an ended Proc's
// coroutine goes back to coroutines, the free list every kernel of the
// process takes from. The list holds at most the peak number of goroutine
// Procs that were live at once; a coroutine is never stopped, so the list
// is unbounded, not a bufpool.Recycler: one dropped at a bound would stay
// parked.
type coroutine struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the Proc it runs; nil once that Proc has ended
}

var coroutines struct {
	sync.Mutex
	free []*coroutine
}

// takeCoroutine pops the free list, or makes a coroutine when it is empty.
func takeCoroutine() *coroutine {
	coroutines.Lock()
	if n := len(coroutines.free); n > 0 {
		c := coroutines.free[n-1]
		coroutines.free[n-1] = nil
		coroutines.free = coroutines.free[:n-1]
		coroutines.Unlock()
		return c
	}
	coroutines.Unlock()
	c := new(coroutine)
	c.next, _ = iter.Pull(c.loop)
	return c
}

// freeCoroutine returns c to the free list. Only the goroutine that resumed
// it calls this, after c has yielded: a coroutine on the list is suspended.
func freeCoroutine(c *coroutine) {
	coroutines.Lock()
	coroutines.free = append(coroutines.free, c)
	coroutines.Unlock()
}

// loop is the coroutine's body: each pass runs the Proc resume gave it, then
// yields to that resume with p cleared, which frees the coroutine.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		fn := p.mach.(procFunc)
		p.mach = nil
		p.k.body(p, fn)
		p.co, c.p = nil, nil
		yield(struct{}{})
	}
}

// body runs p's function to its end; its deferred cleanup passes the token
// onward.
func (k *Kernel) body(p *Proc, fn procFunc) {
	returned := false
	defer func() {
		p.done = true
		if !p.daemon {
			k.live--
		}
		// Completed Procs leave the registry immediately: long-running
		// simulations spawn and retire Procs continuously, and holding every
		// dead one would grow the map (and unwind cost) without bound.
		delete(k.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				k.failProc(p, r)
			}
		} else if !returned {
			// runtime.Goexit: iter.Pull passes it on to the goroutine that
			// called Run (see Run). Nothing more runs.
			k.stopped = true
		}
		k.handoff = k.dispatch() // nil when stopped: unwinding, or at the end of the run
	}()
	fn(p)
	returned = true
}

// park blocks the Proc until something wakes it. The caller must have
// arranged a wakeup (a scheduled event or registration in a wait queue)
// before calling park, or the kernel will detect a deadlock. The parking
// Proc runs the dispatcher itself: when its own wakeup is the very next
// event it carries on without a switch, otherwise it names the Proc to run
// next in handoff and yields to the driver (run, or unwindAll).
func (p *Proc) park() {
	if p.mach != nil {
		// A Machine's Step runs on whichever goroutine is dispatching; it
		// has no coroutine of its own to yield.
		panic(fmt.Sprintf("sim: proc %q is a Machine: it has no goroutine to park (use the Start* halves and return)", p.name))
	}
	k := p.k
	if q := k.dispatch(); q != p {
		k.handoff = q
		p.co.yield(struct{}{})
	}
	p.wakeGen++ // any other pending wakeups for the old park are now stale
	p.wait = nil
	if k.stopped {
		panic(procKilled{})
	}
}

// Park blocks the Proc until the wake its last Start* call armed arrives:
// StartDelay + Park is Delay, a StartRecv, StartSend or StartAcquire that
// reported it queued + Park is Recv, Send or Acquire. It is how a blocking
// call drives a resumable step sequence on a goroutine Proc.
func (p *Proc) Park() { p.park() }

// Delay advances the Proc's virtual time by d, letting other Procs run.
// This is how simulated code charges CPU, bus, or wire time.
func (p *Proc) Delay(d Time) {
	p.StartDelay(d)
	p.park()
}

// StartDelay is Delay without the park: it arms the Proc's wake at now+d.
func (p *Proc) StartDelay(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d in proc %q", d, p.name))
	}
	p.k.wakeAt(p.k.now+d, p)
}

// PollCycle blocks the Proc in a polling wait that alternates two periods —
// an empty poll of d0, then the pause of d1 a self-paced poller takes before
// polling again. It behaves exactly like
//
//	for {
//		p.Delay(d0); if !c.Idle() { return 0 }
//		p.Delay(d1); if !c.Idle() { return 1 }
//	}
//
// — one event per tick, at the same time with the same seq, so every other
// Proc sees the identical schedule and Events() counts the same — but while
// c.Idle() holds the dispatcher re-arms the tick itself instead of resuming
// this goroutine only for it to Delay again. The result says which period's
// tick ended the wait, so the caller can resume where the loop above would
// be. Ticks are never skipped or computed ahead: FIFO order among equal
// timestamps depends on the moment each wake is queued. A nil c is never
// idle: PollCycle(d0, d1, nil) is Delay(d0).
func (p *Proc) PollCycle(d0, d1 Time, c Idler) int {
	if d0 < 0 || d1 < 0 { // a tick queued before now would turn the clock back
		panic(fmt.Sprintf("sim: negative poll period (%d, %d) in proc %q", d0, d1, p.name))
	}
	if d0 == 0 && d1 == 0 && c != nil { // every tick at one instant: the clock would never move
		panic(fmt.Sprintf("sim: poll periods both zero in proc %q", p.name))
	}
	k := p.k
	l0, l1 := k.lane(d0), k.lane(d1)
	p.poll, p.pollLane, p.pollTick = c, [2]uint16{l0, l1}, 0
	k.tick(p, Busy)
	p.park()
	p.poll = nil
	return int(p.pollTick)
}
