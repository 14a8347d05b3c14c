package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The tests below hold PollEvery to its definition: a Proc in
// PollEvery(d, c) and one running `for { Delay(d); if !c.Idle() { break } }`
// must be indistinguishable to everything else in the simulation.

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
}

func (r *pollRun) Idle() bool {
	r.evals++
	if r.evals == r.panicAt {
		panic("cond boom")
	}
	return !r.ch.Ready()
}

func (r *pollRun) note(p *Proc) { r.log = append(r.log, fmt.Sprintf("%v %s", p.Now(), p.Name())) }

// newPollRun builds the scenario; fused selects PollEvery over the reference
// loop for the poller. Everything random is drawn here, before the run, so
// the two variants are handed identical inputs.
func newPollRun(seed int64, fused bool, panicAt int) *pollRun {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	// Odd seeds use a rendezvous channel: the condition flips on a parked
	// sender rather than a buffered item.
	r := &pollRun{k: k, ch: NewChan[int](k, int(seed%2)*3), panicAt: panicAt}

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
				r.note(p)
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
			if fused {
				p.PollEvery(pollD, r)
			} else {
				for {
					p.Delay(pollD)
					if !r.Idle() {
						break
					}
				}
			}
			r.note(p)
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
	ref, got := newPollRun(seed, false, panicAt), newPollRun(seed, true, panicAt)
	script(ref)
	script(got)
	for i := 0; i < len(ref.log) || i < len(got.log); i++ {
		var a, b string
		if i < len(ref.log) {
			a = ref.log[i]
		}
		if i < len(got.log) {
			b = got.log[i]
		}
		if a != b {
			t.Fatalf("seed %d: entry %d differs\n  Delay loop: %s\n  PollEvery:  %s", seed, i, a, b)
		}
	}
	if ref.evals != got.evals {
		t.Fatalf("seed %d: condition evaluated %d times by the loop, %d by PollEvery", seed, ref.evals, got.evals)
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
