package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The tests below hold PollEvery and PollCycle to their definitions: a Proc
// in PollEvery(d, c) and one running `for { Delay(d); if !c.Idle() { break } }`
// must be indistinguishable to everything else in the simulation, and so must
// one in PollCycle(d0, d1, c) and one running
//
//	for { Delay(d0); if !c.Idle() { kind = 0; break }; Delay(d1); if !c.Idle() { kind = 1; break } }
//
// — which also must come out with the same kind.

const pollD = 200 * Nanosecond

// pollRun is one seeded simulation around a polling Proc: tickers whose
// periods collide with the poll grid and don't, producers that make the
// poller's condition false at exact tick instants (queued both ahead of and
// behind the tick) and between ticks, and a driver-context timer.
type pollRun struct {
	k       *Kernel
	ch      *Chan[int]
	log     []string // every resumption of every Proc, the poller's only at the end of a wait
	evals   int      // condition evaluations
	panicAt int      // evaluation that panics (0 = never)

	// Two-period runs: the second period (0 = the one-period wait), which
	// tick kind the condition is being asked at, and what the run covered.
	gap      Time
	kind     func() int
	lastEval struct {
		at   Time
		kind int
		idle bool
	}
	lastSend Time
	exits    [2]int // waits ended, by the kind of tick that ended them
	ahead    [2]int // condition flipped at a tick's instant by a Proc queued ahead of the tick ...
	behind   [2]int // ... and behind it: the tick passed as idle, the next one ends the wait
}

func (r *pollRun) Idle() bool {
	r.evals++
	if r.evals == r.panicAt {
		panic("cond boom")
	}
	idle := !r.ch.Ready()
	if r.gap > 0 {
		kind := r.kind()
		if !idle && r.lastSend == r.k.Now() {
			r.ahead[kind]++
		}
		r.lastEval.at, r.lastEval.kind, r.lastEval.idle = r.k.Now(), kind, idle
	}
	return idle
}

func (r *pollRun) note(p *Proc) { r.log = append(r.log, fmt.Sprintf("%v %s", p.Now(), p.Name())) }

// sending is a producer's note: where its send falls against the poller's
// ticks.
func (r *pollRun) sending(p *Proc) {
	r.note(p)
	r.lastSend = p.Now()
	if r.gap > 0 && r.lastEval.at == p.Now() && r.lastEval.idle {
		r.behind[r.lastEval.kind]++
	}
}

// newPollRun builds the scenario; fused selects PollEvery over the reference
// loop for the poller. Everything random is drawn here, before the run, so
// the two variants are handed identical inputs.
func newPollRun(seed int64, fused bool, panicAt int) *pollRun {
	return newCycleRun(seed, fused, panicAt, 0)
}

// newCycleRun is newPollRun with the poller pausing gap after every empty
// poll of pollD — PollCycle against the two-Delay loop — unless gap is 0.
func newCycleRun(seed int64, fused bool, panicAt int, gap Time) *pollRun {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	// Odd seeds use a rendezvous channel: the condition flips on a parked
	// sender rather than a buffered item.
	r := &pollRun{k: k, ch: NewChan[int](k, int(seed%2)*3), panicAt: panicAt, gap: gap}

	periods := []Time{pollD, pollD / 2, 3 * pollD, 70, 130, Time(50 + rng.Intn(400))}
	for i, period := range periods {
		period := period
		steps := int(60 * Microsecond / period)
		k.SpawnAt(Time(rng.Intn(3))*pollD/2, fmt.Sprintf("tick%d", i), func(p *Proc) {
			for j := 0; j < steps; j++ {
				r.note(p)
				p.Delay(period)
			}
		})
	}
	k.At(5*pollD, func() { r.log = append(r.log, fmt.Sprintf("%v timer", k.Now())) })

	// Each producer is a list of gaps. onGrid waits in whole poll periods —
	// its wake for an instant is queued long before the poller's tick for
	// it, so it runs first; halfStep walks there in half periods, so its
	// wake is queued after the tick's and it runs second; offGrid lands
	// between ticks.
	const sends = 12
	producer := func(name string, first Time, gap func() Time, step Time) {
		gaps := make([]Time, sends)
		for i := range gaps {
			gaps[i] = gap()
		}
		k.Spawn(name, func(p *Proc) {
			p.Delay(first)
			for i, g := range gaps {
				for g > 0 {
					d := step
					if d > g {
						d = g
					}
					p.Delay(d)
					g -= d
				}
				r.sending(p)
				r.ch.Send(p, i)
			}
		})
	}
	producer("onGrid", 20*pollD, func() Time { return Time(1+rng.Intn(30)) * pollD }, 1<<40)
	work := make([]Time, 3*sends)
	for i := range work {
		work[i] = []Time{0, pollD, 37}[rng.Intn(3)] // 37 shifts the poll grid off the tickers'
	}
	k.Spawn("poller", func(p *Proc) {
		for got, w := 0, 0; got < 3*sends; w++ {
			switch {
			case gap == 0 && fused:
				p.PollEvery(pollD, r)
				r.note(p)
			case gap == 0:
				for {
					p.Delay(pollD)
					if !r.Idle() {
						break
					}
				}
				r.note(p)
			default:
				kind := 0
				if fused {
					r.kind = func() int { return int(p.pollTick) }
					kind = p.PollCycle(pollD, gap, r)
				} else {
					r.kind = func() int { return kind }
					for {
						p.Delay(pollD)
						if kind = 0; !r.Idle() {
							break
						}
						p.Delay(gap)
						if kind = 1; !r.Idle() {
							break
						}
					}
				}
				r.exits[kind]++
				r.log = append(r.log, fmt.Sprintf("%v %s tick kind %d", p.Now(), p.Name(), kind))
			}
			for {
				if _, ok := r.ch.TryRecv(); !ok {
					break
				}
				got++
			}
			p.Delay(work[w%len(work)])
		}
	})
	producer("halfStep", 20*pollD, func() Time { return Time(1+rng.Intn(30)) * pollD }, pollD/2)
	producer("offGrid", 21*pollD, func() Time { return Time(1 + rng.Intn(30*int(pollD))) }, 1<<40)
	return r
}

// state appends the kernel's externally visible state to the log.
func (r *pollRun) state(what string, err error) {
	r.log = append(r.log, fmt.Sprintf("%s: err=%v now=%v events=%d live=%d",
		what, firstLine(err), r.k.Now(), r.k.Events(), r.k.Live()))
}

func firstLine(err error) string {
	if err == nil {
		return "<nil>"
	}
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// samePollRuns drives the reference and the PollEvery variant through the
// same script and requires identical logs.
func samePollRuns(t *testing.T, seed int64, panicAt int, script func(r *pollRun)) *pollRun {
	t.Helper()
	return sameCycleRuns(t, seed, panicAt, 0, script)
}

// sameLogs requires the Delay-loop reference's log and the fused variant's
// to be identical, entry by entry.
func sameLogs(t *testing.T, what string, ref, got []string) {
	t.Helper()
	for i := 0; i < len(ref) || i < len(got); i++ {
		var a, b string
		if i < len(ref) {
			a = ref[i]
		}
		if i < len(got) {
			b = got[i]
		}
		if a != b {
			t.Fatalf("%s: entry %d differs\n  Delay loop: %s\n  fused:      %s", what, i, a, b)
		}
	}
}

// sameCycleRuns is samePollRuns for a poller pausing gap between polls.
func sameCycleRuns(t *testing.T, seed int64, panicAt int, gap Time, script func(r *pollRun)) *pollRun {
	t.Helper()
	ref, got := newCycleRun(seed, false, panicAt, gap), newCycleRun(seed, true, panicAt, gap)
	script(ref)
	script(got)
	sameLogs(t, fmt.Sprintf("seed %d gap %v", seed, gap), ref.log, got.log)
	if ref.evals != got.evals {
		t.Fatalf("seed %d gap %v: condition evaluated %d times by the loop, %d by the fused wait", seed, gap, ref.evals, got.evals)
	}
	if ref.exits != got.exits || ref.ahead != got.ahead || ref.behind != got.behind {
		t.Fatalf("seed %d gap %v: the loop covered exits %v ahead %v behind %v, the fused wait %v %v %v",
			seed, gap, ref.exits, ref.ahead, ref.behind, got.exits, got.ahead, got.behind)
	}
	return got
}

func TestPollEveryMatchesDelayLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := samePollRuns(t, seed, 0, func(r *pollRun) { r.state("run", r.k.Run()) })
		if r.evals < 100 {
			t.Fatalf("seed %d: only %d poll ticks; the scenario no longer idles", seed, r.evals)
		}
		if !strings.HasPrefix(r.log[len(r.log)-1], "run: err=<nil>") {
			t.Fatalf("seed %d: %s", seed, r.log[len(r.log)-1])
		}
	}
}

// A bounded run that ends inside an idle stretch — between ticks, exactly on
// one (RunUntil executes it, RunBefore leaves it queued with its seq) — and
// is resumed must come out as the reference does.
func TestPollEveryPauseAndResume(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		samePollRuns(t, seed, 0, func(r *pollRun) {
			r.state("until mid", r.k.RunUntil(7*pollD+50))
			r.state("until tick", r.k.RunUntil(9*pollD))
			r.state("before tick", r.k.RunBefore(12*pollD))
			r.state("before mid", r.k.RunBefore(14*pollD+1))
			r.state("until late", r.k.RunUntil(150*pollD+3))
			r.state("run", r.k.Run())
		})
	}
}

// Stop and Shutdown reach a Proc parked mid-stretch like any parked Proc.
func TestPollEveryStopAndShutdownMidStretch(t *testing.T) {
	r := samePollRuns(t, 3, 0, func(r *pollRun) {
		r.k.At(10*pollD+50, r.k.Stop)
		r.state("stopped", r.k.Run())
	})
	if !strings.Contains(r.log[len(r.log)-1], ErrStopped.Error()) {
		t.Fatalf("want ErrStopped, got %s", r.log[len(r.log)-1])
	}
	samePollRuns(t, 4, 0, func(r *pollRun) {
		r.state("paused", r.k.RunUntil(10*pollD+50))
		r.k.Shutdown()
		r.state("shut down", nil)
	})
}

// A panic in the condition is the polling Proc's failure, by name, whichever
// goroutine evaluated it.
func TestPollEveryConditionPanicNamesProc(t *testing.T) {
	r := samePollRuns(t, 5, 9, func(r *pollRun) { r.state("run", r.k.Run()) })
	last := r.log[len(r.log)-1]
	if !strings.Contains(last, `proc "poller" panicked: cond boom`) {
		t.Fatalf("failure does not name the polling Proc: %s", last)
	}
}

// PollEvery with no condition is Delay.
func TestPollEveryNilIsDelay(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.PollEvery(pollD, nil)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != pollD || k.Events() != 2 {
		t.Fatalf("woke at %v after %d events, want %v after 2", at, k.Events(), pollD)
	}
}

// An idle stretch that never ends costs one event per tick and is cut by the
// horizon with the poller still live, like the Delay loop it stands for.
func TestPollEveryForeverIdleHitsHorizon(t *testing.T) {
	k := NewKernel()
	k.Spawn("spinner", func(p *Proc) { p.PollEvery(pollD, idleFor(1<<62)) })
	if err := k.RunUntil(Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 1 || k.LiveNames() != "spinner" {
		t.Fatalf("live = %d (%s), want the spinner", k.Live(), k.LiveNames())
	}
	if want := uint64(Millisecond/pollD) + 2; k.Events() != want {
		t.Fatalf("%d events, want %d: one per tick", k.Events(), want)
	}
	k.Shutdown()
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("run after shutdown: %v", err)
	}
}

// idleFor is a condition that holds for a fixed number of ticks at a time.
type idleCount struct{ n, every int }

func idleFor(ticks int) *idleCount { return &idleCount{every: ticks} }

func (c *idleCount) Idle() bool {
	c.n++
	return c.n%c.every != 0
}

// cycleGaps are the pauses the two-period tests run with: three poll periods
// (every tick of either kind on the producers' grid), half of one, and one
// that walks the poller's grid off everybody else's.
var cycleGaps = []Time{3 * pollD, pollD / 2, 130}

// The poller's k-th poll tick and k-th pause tick (from 0) of an idle stretch
// begun at time zero.
func pollTickAt(gap Time, k int) Time  { return Time(k)*(pollD+gap) + pollD }
func pauseTickAt(gap Time, k int) Time { return Time(k+1) * (pollD + gap) }

func TestPollCycleMatchesTwoDelayLoop(t *testing.T) {
	for _, gap := range cycleGaps {
		var exits, ahead, behind [2]int
		for seed := int64(1); seed <= 20; seed++ {
			r := sameCycleRuns(t, seed, 0, gap, func(r *pollRun) { r.state("run", r.k.Run()) })
			if r.evals < 50 {
				t.Fatalf("seed %d gap %v: only %d ticks; the scenario no longer idles", seed, gap, r.evals)
			}
			if !strings.HasPrefix(r.log[len(r.log)-1], "run: err=<nil>") {
				t.Fatalf("seed %d gap %v: %s", seed, gap, r.log[len(r.log)-1])
			}
			for kind := range exits {
				exits[kind] += r.exits[kind]
				ahead[kind] += r.ahead[kind]
				behind[kind] += r.behind[kind]
			}
		}
		// Between-tick flips are whatever is left of the exits; the exact
		// hits are what a two-period wait can get wrong by one tick.
		t.Logf("gap %v: exits %v, flips at a tick's instant: ahead %v behind %v", gap, exits, ahead, behind)
		for kind := range exits {
			if exits[kind] == 0 || gap%(pollD/2) == 0 && (ahead[kind] == 0 || behind[kind] == 0) {
				t.Fatalf("gap %v: scenario lost its point for tick kind %d: %d waits ended on it; the condition flipped at its instant %d times ahead of the tick, %d behind",
					gap, kind, exits[kind], ahead[kind], behind[kind])
			}
		}
	}
}

// Bounded runs that end on a tick of either kind — RunUntil executes it,
// RunBefore leaves it queued with its seq — and between two, resumed each
// time.
func TestPollCyclePauseAndResume(t *testing.T) {
	for _, gap := range cycleGaps {
		for seed := int64(1); seed <= 6; seed++ {
			sameCycleRuns(t, seed, 0, gap, func(r *pollRun) {
				r.state("until mid-pause", r.k.RunUntil(pollTickAt(gap, 1)+50))
				r.state("until poll tick", r.k.RunUntil(pollTickAt(gap, 2)))
				r.state("until pause tick", r.k.RunUntil(pauseTickAt(gap, 3)))
				r.state("before poll tick", r.k.RunBefore(pollTickAt(gap, 5)))
				r.state("before pause tick", r.k.RunBefore(pauseTickAt(gap, 6)))
				r.state("before mid-poll", r.k.RunBefore(pauseTickAt(gap, 7)+1))
				r.state("until late", r.k.RunUntil(150*pollD+3))
				r.state("run", r.k.Run())
			})
		}
	}
}

// Stop and Shutdown reach a Proc parked mid-stretch on either kind of tick.
func TestPollCycleStopAndShutdownMidStretch(t *testing.T) {
	const gap = 3 * pollD
	for name, at := range map[string]Time{
		"in poll":  pauseTickAt(gap, 2) + 50,
		"in pause": pollTickAt(gap, 2) + 50,
	} {
		r := sameCycleRuns(t, 3, 0, gap, func(r *pollRun) {
			r.k.At(at, r.k.Stop)
			r.state("stopped "+name, r.k.Run())
		})
		if !strings.Contains(r.log[len(r.log)-1], ErrStopped.Error()) {
			t.Fatalf("%s: want ErrStopped, got %s", name, r.log[len(r.log)-1])
		}
		sameCycleRuns(t, 4, 0, gap, func(r *pollRun) {
			r.state("paused "+name, r.k.RunUntil(at))
			r.k.Shutdown()
			r.state("shut down", nil)
		})
	}
}

// A panic in the condition is the polling Proc's failure whichever kind of
// tick it was asked at.
func TestPollCycleConditionPanicNamesProc(t *testing.T) {
	for _, panicAt := range []int{9, 10} { // a poll tick, a pause tick
		r := sameCycleRuns(t, 5, panicAt, 3*pollD, func(r *pollRun) { r.state("run", r.k.Run()) })
		last := r.log[len(r.log)-1]
		if !strings.Contains(last, `proc "poller" panicked: cond boom`) {
			t.Fatalf("failure does not name the polling Proc: %s", last)
		}
	}
}

// A negative period is refused before any tick is queued: the second one
// would otherwise be queued before now and turn the clock back.
func TestPollCycleRejectsNegativePeriod(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.PollCycle(pollD, -1, idleFor(2)) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), `negative poll period (200, -1) in proc "p"`) {
		t.Fatalf("want the negative period refused, got %s", firstLine(err))
	}
}

// The two periods alternate from the first: an idle stretch costs one event
// per tick, and the result is the kind of the tick that ended it.
func TestPollCycleAlternatesPeriods(t *testing.T) {
	const d0, d1 = 200 * Nanosecond, 700 * Nanosecond
	for ticks, want := range map[int]struct {
		at   Time
		kind int
	}{
		1: {d0, 0},
		2: {d0 + d1, 1},
		5: {3*d0 + 2*d1, 0},
		6: {3 * (d0 + d1), 1},
	} {
		k := NewKernel()
		var at Time
		kind := -1
		k.Spawn("p", func(p *Proc) {
			kind = p.PollCycle(d0, d1, idleFor(ticks))
			at = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if at != want.at || kind != want.kind || k.Events() != uint64(ticks)+1 {
			t.Fatalf("%d ticks: woke at %v on kind %d after %d events, want %v on kind %d after %d",
				ticks, at, kind, k.Events(), want.at, want.kind, ticks+1)
		}
	}
}

// Poll ticks wait in one FIFO lane per period beside the event heap
// (Kernel.tick). The tests below put many periods on one kernel at once —
// lane heads interleaving with each other and with At events and Machines at
// the same instants, and ticks left stale in their lanes by pollers woken
// early — and hold it all to the same pollers written as Delay loops.

// laneSpec is one poller of a laneRun: PollEvery(d0) when every, else
// PollCycle(d0, d1).
type laneSpec struct {
	d0, d1 Time
	every  bool
}

// lanePoller's condition is its own inbox. Kicks wake it early — through a
// Signal when its index is even, a rendezvous Chan when odd — which leaves
// the tick it was waiting for stale in its lane.
type lanePoller struct {
	laneSpec
	r    *laneRun
	p    *Proc
	name string
	in   *Chan[int]
	sig  Signal
	kick *Chan[int]
	slot int
}

func (c *lanePoller) Idle() bool {
	idle := !c.in.Ready()
	c.r.note("%s idle=%v", c.name, idle)
	return idle
}

// wait is the poller's wait: the fused one, or the Delay loop it stands for.
func (c *lanePoller) wait(p *Proc, fused bool) {
	switch {
	case fused && c.every:
		p.PollEvery(c.d0, c)
		c.r.note("%s woke", c.name)
	case fused:
		c.r.note("%s woke on kind %d", c.name, p.PollCycle(c.d0, c.d1, c))
	case c.every:
		for {
			p.Delay(c.d0)
			if !c.Idle() {
				break
			}
		}
		c.r.note("%s woke", c.name)
	default:
		kind := 0
		for {
			p.Delay(c.d0)
			if kind = 0; !c.Idle() {
				break
			}
			p.Delay(c.d1)
			if kind = 1; !c.Idle() {
				break
			}
		}
		c.r.note("%s woke on kind %d", c.name, kind)
	}
}

// laneRun is one seeded simulation of pollers on many periods.
type laneRun struct {
	k       *Kernel
	log     []string // every resumption and every condition evaluation, with (t, seq)
	pollers []*lanePoller
	early   int // kicks that found their poller inside its wait (fused runs only)
}

func (r *laneRun) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%v #%d ", r.k.now, r.k.seq)+fmt.Sprintf(format, args...))
}

// gridMachine logs each wake and re-arms on its period, steps times.
type gridMachine struct {
	r     *laneRun
	name  string
	every Time
	steps int
}

func (m *gridMachine) Step(p *Proc) {
	m.r.note("%s", m.name)
	if m.steps > 0 {
		m.steps--
		p.StartDelay(m.every)
	}
}

// newLaneRun builds the scenario; every random draw is made here, before the
// run, so both variants are handed identical inputs.
func newLaneRun(seed int64, fused bool, specs []laneSpec) *laneRun {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	r := &laneRun{k: k}
	const sends, span = 6, 40 * Microsecond
	// onGrid lands on the 200 ns grid most pollers tick on, offGrid anywhere.
	onGrid := func() Time { return Time(1+rng.Intn(2*int(span/pollD))) * pollD / 2 }
	offGrid := func() Time { return Time(1 + rng.Intn(int(span))) }
	for i, s := range specs {
		c := &lanePoller{laneSpec: s, r: r, name: fmt.Sprintf("poller%d", i),
			in: NewChan[int](k, sends), kick: NewChan[int](k, 0)}
		r.pollers = append(r.pollers, c)
		feed := make([]Time, sends)
		for j := range feed {
			if feed[j] = offGrid() / sends; rng.Intn(2) == 0 {
				feed[j] = onGrid() / sends / pollD * pollD
			}
		}
		k.Spawn(fmt.Sprintf("feed%d", i), func(p *Proc) {
			for j, g := range feed {
				p.Delay(g)
				r.note("feed%d", i)
				c.in.Send(p, j)
			}
		})
		work := Time(rng.Intn(3)) * pollD / 2
		c.p = k.Spawn(c.name, func(p *Proc) {
			for got := 0; got < sends; {
				if i%2 == 0 && c.sig.q.len() == 0 {
					c.sig.q.push(p)
				} else if i%2 == 1 && c.kick.recvq.len() == 0 {
					c.kick.StartRecv(p, &c.slot)
				}
				c.wait(p, fused)
				for {
					if _, ok := c.in.TryRecv(); !ok {
						break
					}
					got++
				}
				p.Delay(work)
			}
		})
	}
	kicks := make([]struct {
		at Time
		i  int
	}, 4*len(specs))
	for j := range kicks {
		kicks[j].at, kicks[j].i = offGrid(), rng.Intn(len(specs))
		if j%2 == 0 {
			kicks[j].at = onGrid()
		}
	}
	k.Spawn("kicker", func(p *Proc) {
		for _, kk := range kicks {
			p.Delay(kk.at / Time(len(kicks)))
			c := r.pollers[kk.i]
			if c.p.poll != nil {
				r.early++
			}
			r.note("kick %s", c.name)
			if kk.i%2 == 0 {
				c.sig.Signal()
			} else {
				c.kick.TrySend(1)
			}
		}
	})
	for j := 0; j < 16; j++ {
		at := onGrid()
		k.At(at, func() { r.note("at") })
	}
	k.SpawnMachine("machine200ns", &gridMachine{r: r, name: "machine200ns", every: pollD, steps: int(span / pollD)})
	k.SpawnMachine("machine1us", &gridMachine{r: r, name: "machine1us", every: Microsecond, steps: int(span / Microsecond)})
	return r
}

func (r *laneRun) state(what string, err error) {
	t, ok := r.k.NextEventTime()
	r.log = append(r.log, fmt.Sprintf("%s: err=%v now=%v events=%d live=%d next=%v,%v",
		what, firstLine(err), r.k.Now(), r.k.Events(), r.k.Live(), t, ok))
}

// sameLaneRuns drives the Delay-loop reference and the fused variant through
// the same script and requires identical logs.
func sameLaneRuns(t *testing.T, seed int64, specs []laneSpec, script func(r *laneRun)) *laneRun {
	t.Helper()
	ref, got := newLaneRun(seed, false, specs), newLaneRun(seed, true, specs)
	script(ref)
	script(got)
	sameLogs(t, fmt.Sprintf("seed %d", seed), ref.log, got.log)
	return got
}

// laneCases are the period mixes: three periods (200 ns shared by all three
// pollers, 1 µs, 3 µs), and 64 — 48 pollers, 16 lanes shared by two of them.
var laneCases = map[string][]laneSpec{
	"three": {{d0: pollD, every: true}, {d0: pollD, d1: Microsecond}, {d0: pollD, d1: 3 * Microsecond}},
	"64":    sixtyFourPeriods(),
}

func sixtyFourPeriods() []laneSpec {
	var specs []laneSpec
	for i := 0; i < 32; i++ {
		specs = append(specs, laneSpec{d0: 100 + 10*Time(i), d1: 1000 + 70*Time(i)})
	}
	for i := 0; i < 16; i++ {
		specs = append(specs, laneSpec{d0: 100 + 20*Time(i), every: true})
	}
	return specs
}

func distinctPeriods(specs []laneSpec) int {
	seen := map[Time]bool{}
	for _, s := range specs {
		seen[s.d0] = true
		if !s.every {
			seen[s.d1] = true
		}
	}
	return len(seen)
}

func TestPollLanesMatchDelayLoops(t *testing.T) {
	for name, specs := range laneCases {
		early := 0
		for seed := int64(1); seed <= 12; seed++ {
			r := sameLaneRuns(t, seed, specs, func(r *laneRun) { r.state("run", r.k.Run()) })
			if !strings.HasPrefix(r.log[len(r.log)-1], "run: err=<nil>") {
				t.Fatalf("%s seed %d: %s", name, seed, r.log[len(r.log)-1])
			}
			if len(r.k.lanes) != distinctPeriods(specs) {
				t.Fatalf("%s seed %d: %d lanes for %d periods", name, seed, len(r.k.lanes), distinctPeriods(specs))
			}
			early += r.early
		}
		if early == 0 {
			t.Fatalf("%s: no kick found its poller waiting; no tick was left stale", name)
		}
		t.Logf("%s: %d periods, %d kicks left a stale tick", name, distinctPeriods(specs), early)
	}
}

// Bounded runs, resumed, must pause where the Delay loops do and report the
// same earliest pending event — most often a lane's head.
func TestPollLanesPauseAndResume(t *testing.T) {
	for name, specs := range laneCases {
		laneFirst := 0
		for seed := int64(1); seed <= 12; seed++ {
			sameLaneRuns(t, seed, specs, func(r *laneRun) {
				rng := rand.New(rand.NewSource(seed))
				for at := Time(0); at < 45*Microsecond; {
					at += Time(1 + rng.Intn(int(2*Microsecond)))
					if rng.Intn(2) == 0 {
						at = at / pollD * pollD // on a tick instant
					}
					if rng.Intn(2) == 0 {
						r.state(fmt.Sprintf("until %v", at), r.k.RunUntil(at))
					} else {
						r.state(fmt.Sprintf("before %v", at+1), r.k.RunBefore(at+1))
					}
					if _, l := r.k.next(); l != nil {
						laneFirst++
					}
				}
				r.state("run", r.k.Run())
			})
		}
		if laneFirst == 0 {
			t.Fatalf("%s: no pause had a lane tick as its earliest event", name)
		}
	}
}

// With a lane tick the earliest event, NextEventTime reports it, RunBefore
// leaves it queued and RunUntil runs it.
func TestNextEventTimeSeesLaneTicks(t *testing.T) {
	k := NewKernel()
	k.Spawn("spinner", func(p *Proc) { p.PollEvery(pollD, idleFor(1<<62)) })
	k.At(10*pollD+50, func() {})
	steps := []struct {
		run       func() error
		now, next Time
	}{
		{func() error { return k.RunUntil(50) }, 50, pollD},
		{func() error { return k.RunBefore(2 * pollD) }, pollD, 2 * pollD},
		{func() error { return k.RunUntil(2 * pollD) }, 2 * pollD, 3 * pollD},
		{func() error { return k.RunBefore(10*pollD + 51) }, 10*pollD + 50, 11 * pollD},
		{func() error { return k.RunUntil(11*pollD + 1) }, 11*pollD + 1, 12 * pollD},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if k.Now() != s.now {
			t.Fatalf("clock at %v, want %v", k.Now(), s.now)
		}
		if got, ok := k.NextEventTime(); !ok || got != s.next {
			t.Fatalf("at %v: next event at %v (%v), want %v", k.Now(), got, ok, s.next)
		}
	}
	k.Shutdown()
}
