package sim

import (
	"errors"
	"strings"
	"testing"
)

// Pins of the polling waits' contracts beside the differential matrix
// (differential_test.go): fixed cases whose exact numbers are the point.

// A one-period poll with no condition is Delay.
func TestPollEveryNilIsDelay(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.PollCycle(gridD, gridD, nil)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != gridD || k.Events() != 2 {
		t.Fatalf("woke at %v after %d events, want %v after 2", at, k.Events(), gridD)
	}
}

// An idle stretch that never ends costs one event per tick and is cut by the
// horizon with the poller still live, like the Delay loop it stands for.
func TestPollEveryForeverIdleHitsHorizon(t *testing.T) {
	k := NewKernel()
	k.Spawn("spinner", func(p *Proc) { p.PollCycle(gridD, gridD, idleFor(1<<62)) })
	if err := k.RunUntil(Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 1 || k.HangReport().String() != "spinner: poll" {
		t.Fatalf("live = %d (%v), want the spinner", k.Live(), k.HangReport())
	}
	if want := uint64(Millisecond/gridD) + 2; k.Events() != want {
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

func (c *idleCount) Idle() Time {
	if c.n++; c.n%c.every == 0 {
		return Busy
	}
	return OneTick
}

func (*idleCount) Describe() (string, int, []int) { return "poll", -1, nil }

// A negative period is refused before any tick is queued: the second one
// would otherwise be queued before now and turn the clock back.
func TestPollCycleRejectsNegativePeriod(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.PollCycle(gridD, -1, idleFor(2)) })
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

// With a lane tick the earliest event, next reports it and RunUntil runs it.
func TestNextEventSeesLaneTicks(t *testing.T) {
	k := NewKernel()
	k.Spawn("spinner", func(p *Proc) { p.PollCycle(gridD, gridD, idleFor(1<<62)) })
	k.SpawnAt(10*gridD+50, "mark", func(*Proc) {})
	steps := []struct {
		run       func() error
		now, next Time
	}{
		{func() error { return k.RunUntil(50) }, 50, gridD},
		{func() error { return k.RunUntil(2 * gridD) }, 2 * gridD, 3 * gridD},
		{func() error { return k.RunUntil(10*gridD + 50) }, 10*gridD + 50, 11 * gridD},
		{func() error { return k.RunUntil(11*gridD + 1) }, 11*gridD + 1, 12 * gridD},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if k.Now() != s.now {
			t.Fatalf("clock at %v, want %v", k.Now(), s.now)
		}
		if got, from := k.next(); from == noEvent || got != s.next {
			t.Fatalf("at %v: next event at %v (lane %d), want %v", k.Now(), got, from, s.next)
		}
	}
	k.Shutdown()
}

// Both periods zero would queue every tick at one instant and never move the
// clock: refused at the call, like a negative period.
func TestPollCycleRejectsZeroPeriods(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.PollCycle(0, 0, idleFor(2)) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), `poll periods both zero in proc "p"`) {
		t.Fatalf("want the zero periods refused, got %s", firstLine(err))
	}
}
