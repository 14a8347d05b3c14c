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
// The dispatcher owns three things beyond popping the next event. The first
// two run outside a Proc's own coroutine, on whichever one holds the control
// token, because the dispatcher runs them itself. Neither is an exception to
// the guarantee — the token is still held by exactly one goroutine — they
// just spare an event its coroutine switch:
//
//   - The Idler of a Proc blocked in PollCycle (PollEvery is its one-period
//     case): an idle tick, an empty poll or the pause a self-paced poller
//     takes after one, is re-armed by the dispatcher. An Idler only reads.
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
// The third is where poll ticks wait: not in the event heap but in one FIFO
// lane per period beside it. A tick of period d is queued at now+d with the
// next seq, and since now never goes back and seq only grows, each lane is
// already in (t, seq) order; the dispatcher takes the least of the heap top
// and the lane heads, so events run in exactly the order one heap would pop
// them, without sifting hundreds of re-armed ticks through it.
//
// The control token moves by coroutine switch (see Kernel). No channel
// carries it and kernel.go starts no goroutine; building a simulation starts
// none either, because a Proc gets its coroutine at its first wake.
//
// Every dispatcher shortcut — idle ticks, paced ticks, lanes, Machines, lazy
// launch — is defined as the code it stands for, and differential_test.go
// holds it to that code: one generator draws seeded programs, one
// interpreter runs each fused and written out, and every resumption must
// match at (t, seq). A new shortcut is a new spelling in that interpreter
// plus a coverage floor, not a new harness.
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
	"runtime/debug"
	"sync"
)

// procKilled is the sentinel panic used to unwind Procs during shutdown.
type procKilled struct{}

// ErrDeadlock is returned by Run when live Procs remain but no event can
// ever wake them.
var ErrDeadlock = errors.New("sim: deadlock: live processes with empty event queue")

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = errors.New("sim: stopped")

type event struct {
	t    Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	proc *Proc  // proc to wake (nil if fn event)
	gen  uint64 // wake generation; stale events are dropped
	fn   func() // executed in driver context (timers, monitors)
}

// eventHeap is a binary min-heap ordered by (time, seq). The sift
// operations are inlined on the slice rather than going through
// container/heap, which would box every event into an interface{} — an
// allocation per scheduled event on the kernel's hottest path. The backing
// array is reused across push/pop cycles, and both sifts move a hole
// instead of swapping whole event structs, halving the copies on the
// simulator's single hottest loop. (t, seq) is a TOTAL order — seq is
// unique — so any correct heap pops the identical sequence: these
// micro-optimizations cannot perturb determinism.
type eventHeap []event

func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, event{})
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&e, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := s[n]
	s[n] = event{} // drop proc/fn references so the GC can reclaim them
	s = s[:n]
	*h = s
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && evLess(&s[r], &s[c]) {
				c = r
			}
			if !evLess(&s[c], &last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	return top
}

// lane is the FIFO of poll ticks armed with one period d (Kernel.tick). Each
// is queued at now+d with the next seq; now never goes back and seq only
// grows, so the lane is already in (t, seq) order and its head is its least
// event. It is a ring, a power of two long, grown by doubling and never
// shrunk: a drained lane keeps its backing array for the next idle stretch.
type lane struct {
	d    Time
	ring []event
	head int
	n    int
}

// push appends a slot and returns it for the caller to fill in place: on the
// 1024-rank allreduce, copying in an event built on the stack cost 28 % of
// host time in that one store, against ~6 % for the whole re-arm in place.
func (l *lane) push() *event {
	if l.n == len(l.ring) {
		grown := make([]event, max(2*len(l.ring), 16))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	l.n++
	return e
}

func (l *lane) pop() event {
	e := l.ring[l.head]
	l.ring[l.head].proc = nil // a tick holds no fn: the Proc is its only reference
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e
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
	eq      eventHeap
	lanes   []lane // poll ticks, one FIFO per period, beside the heap
	seq     uint64
	handoff *Proc // set by a yielding coroutine: the Proc run resumes next, nil to end the run
	procs   map[*Proc]struct{}
	live    int
	stopped bool
	failure error
	horizon Time // 0 = unbounded
	strict  bool // horizon is exclusive (RunBefore window bound)
	label   string
}

// NewKernel returns an empty simulation at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[*Proc]struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// ctx is the diagnostic prefix: empty for a sequential kernel, and
// "[lp <name> @ <t>] " for the kernel the parallel engine labels for an LP,
// so a failure or hang line from a partitioned run names the owning LP and
// its local virtual time.
func (k *Kernel) ctx() string {
	if k.label == "" {
		return ""
	}
	return fmt.Sprintf("[lp %s @ %v] ", k.label, k.now)
}

// NextEventTime reports the timestamp of the earliest pending event. ok is
// false when the queue is empty. The parallel engine reads this to compute
// the lower bound on any future cross-LP message.
func (k *Kernel) NextEventTime() (t Time, ok bool) {
	if e, _ := k.next(); e != nil {
		return e.t, true
	}
	return 0, false
}

// next finds the least pending event across the heap top and the lane heads,
// and the lane holding it (nil: the heap). It is nil when nothing is queued.
func (k *Kernel) next() (top *event, from *lane) {
	if len(k.eq) > 0 {
		top = &k.eq[0]
	}
	for i := range k.lanes {
		if l := &k.lanes[i]; l.n > 0 && (top == nil || evLess(&l.ring[l.head], top)) {
			top, from = &l.ring[l.head], l
		}
	}
	return top, from
}

// Live reports the number of live non-daemon Procs.
func (k *Kernel) Live() int { return k.live }

// Events reports the cumulative count of events scheduled since creation —
// the denominator of the wall-clock events/sec metric the perf suite tracks.
func (k *Kernel) Events() uint64 { return k.seq }

// Stop halts the simulation: Run returns ErrStopped after unwinding all
// Procs. Safe to call from inside a Proc.
func (k *Kernel) Stop() { k.stopped = true }

func (k *Kernel) push(e event) {
	e.seq = k.seq
	k.seq++
	k.eq.push(e)
}

// tick arms p's next poll tick, d from now, in the lane for d — the one place
// a tick is queued, so none ever enters the heap. It takes its seq at this
// moment, exactly as the Delay it stands for would have.
func (k *Kernel) tick(p *Proc, d Time) {
	e := k.lane(d).push()
	e.t, e.seq, e.proc, e.gen = k.now+d, k.seq, p, p.wakeGen // fn is nil in every slot
	k.seq++
}

// lane finds the lane for period d, or opens one. Real runs have a handful
// of periods, so a scan is all the index they need.
func (k *Kernel) lane(d Time) *lane {
	for i := range k.lanes {
		if k.lanes[i].d == d {
			return &k.lanes[i]
		}
	}
	k.lanes = append(k.lanes, lane{d: d})
	return &k.lanes[len(k.lanes)-1]
}

// At schedules fn to run in driver context at absolute virtual time t
// (clamped to now if in the past).
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.push(event{t: t, fn: fn})
}

// wakeAt schedules p to resume at absolute time t with its current wake
// generation. Internal: synchronization primitives use this.
func (k *Kernel) wakeAt(t Time, p *Proc) {
	if t < k.now {
		t = k.now
	}
	k.push(event{t: t, proc: p, gen: p.wakeGen})
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
	k.fail(fmt.Errorf("sim: %sproc %q panicked: %v\n%s", k.ctx(), p.name, r, debug.Stack()))
}

// Run drives the simulation until the event queue is empty, Stop is called,
// or a Proc panics. It returns nil on a clean drain with no live Procs,
// ErrDeadlock if live Procs remain unwakeable, ErrStopped after Stop, or the
// wrapped panic of a failed Proc.
//
// A Proc's function that calls runtime.Goexit (as t.FailNow does) takes the
// goroutine that called Run with it: that goroutine exits, running its
// deferred calls, and Run does not return. The kernel is left stopped with
// its other Procs parked; Shutdown, from any goroutine, unwinds them.
func (k *Kernel) Run() error { return k.run(0) }

// RunUntil drives the simulation but stops advancing the clock past t;
// events at exactly t still execute.
func (k *Kernel) RunUntil(t Time) error { return k.run(t) }

// RunBefore drives the simulation through every event with timestamp
// STRICTLY below limit, then pauses resumably with events at or past limit
// still queued. This is the parallel engine's window primitive: with Time an
// integer nanosecond count, a conservative window [W0, W) must exclude its
// upper bound or two LPs could both execute events at exactly W that
// cross-influence each other. Unlike RunUntil, the clock is left at the last
// executed event, not pulled up to the bound.
func (k *Kernel) RunBefore(limit Time) error {
	if limit <= 0 {
		panic("sim: RunBefore needs a positive bound")
	}
	k.strict = true
	defer func() { k.strict = false }()
	return k.run(limit)
}

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
	for {
		var top *event
		var l *lane
		if !k.stopped {
			top, l = k.next()
		}
		if top == nil {
			return nil
		}
		if t := top.t; k.horizon != 0 && (t > k.horizon || (k.strict && t >= k.horizon)) {
			// Past the horizon: the event stays queued (seq preserved) and
			// the clock stops here. A strict horizon (RunBefore window)
			// excludes its bound and leaves the clock at the last executed
			// event.
			if !k.strict {
				k.now = k.horizon
			}
			return nil
		}
		k.now = top.t
		var ev event
		if l != nil {
			ev = l.pop()
		} else {
			ev = k.eq.pop()
		}
		if ev.fn != nil {
			k.runFn(ev.fn)
			continue
		}
		p := ev.proc
		if p.done || ev.gen != p.wakeGen {
			continue // stale wakeup (proc already woken another way)
		}
		if p.poll != nil && k.idle(p) {
			// An idle tick of a Proc in PollCycle: re-arm its wake with the
			// cycle's other period exactly as the Proc's own Delay would
			// have — same time, the seq consumed at this same moment,
			// wakeGen stepped as park does on resume — without switching
			// to its coroutine.
			p.wakeGen++
			p.pollTick ^= 1
			k.tick(p, p.pollEvery[p.pollTick])
			continue
		}
		if p.mach != nil {
			if _, first := p.mach.(procFunc); !first {
				// A Machine has no coroutine to switch to: its wake is one
				// call, with wakeGen stepped as park does on resume.
				p.wakeGen++
				k.step(p)
				continue
			}
		}
		return p // a goroutine Proc; at its first wake, resume gives it its coroutine
	}
}

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

// runFn executes a driver-context event (At/After) with its own recovery:
// the dispatcher runs on whichever goroutine holds the control token, so
// without this a panicking timer/monitor fn would either escape Run or be
// misattributed to the unrelated Proc that happened to be parking —
// depending on event timing. Recovering here keeps the failure deterministic
// and correctly labeled.
func (k *Kernel) runFn(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			k.fail(fmt.Errorf("sim: %sdriver event panicked: %v\n%s", k.ctx(), r, debug.Stack()))
		}
	}()
	fn()
}

// Idler is the wait condition of a Proc blocked in PollCycle. Idle reports
// whether the Proc, resumed at the current instant, would find nothing to do
// but start the cycle's next period. It is called in dispatcher context — on
// whichever goroutine holds the control token, with the clock at the tick —
// so it must only read, and only state the polling Proc itself could read at
// that instant (under the parallel engine: state of its own LP). Answering
// false when there was in fact nothing to do is always safe; it costs one
// coroutine switch. As a Wait it names the poll for the hang report.
type Idler interface {
	Idle() bool
	Wait
}

// idle evaluates p's wait condition at a poll tick. A panic in it is p's
// failure, as it would have been had p evaluated the condition itself: the
// run is failed in p's name and the tick reported not idle, so p is resumed
// into a stopped kernel and unwinds.
func (k *Kernel) idle(p *Proc) (idle bool) {
	defer func() {
		if r := recover(); r != nil {
			k.failProc(p, r)
			idle = false
		}
	}()
	return p.poll.Idle()
}

// Machine is the body of a goroutine-less Proc. Step runs in dispatcher
// context each time the Proc is woken — first at its spawn instant — and must
// return, never block: it does what a goroutine Proc would do between two
// parks, ends by arming exactly one wake (a Start* call that reported it
// queued, or StartDelay), and keeps its place in its own fields. It may touch
// whatever a Proc of its kernel may (under the parallel engine: its own LP).
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
	// pending; it sits with the flags so the second period is all Proc grows
	// by.
	pollTick  uint8
	poll      Idler
	pollEvery [2]Time

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
	k.wakeAt(t, p)
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
// Procs that were live at once; a coroutine is never stopped.
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
	p.poll, p.pollEvery, p.pollTick = c, [2]Time{d0, d1}, 0
	p.k.tick(p, d0)
	p.park()
	p.poll = nil
	return int(p.pollTick)
}

// PollEvery is the one-period polling wait, PollCycle(d, d, c):
//
//	for { p.Delay(d); if !c.Idle() { return } }
func (p *Proc) PollEvery(d Time, c Idler) { p.PollCycle(d, d, c) }
