package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// pingPong builds a two-party token exchange where each leg crosses between
// the parties with wire latency `lat`: the smallest model with a genuine
// cross-LP dependency chain. send delivers v to the other side at now+lat.
// Returns the recorded receive timestamps on both sides after the run.
func pingPongFused(rounds int, lat Time) ([]Time, []Time) {
	k := NewKernel()
	chA := NewChan[int](k, 8)
	chB := NewChan[int](k, 8)
	var gotA, gotB []Time
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			v := i
			k.At(p.Now()+lat, func() { chB.TrySend(v) })
			got := chA.Recv(p)
			gotA = append(gotA, p.Now())
			if got != i {
				panic("order")
			}
			p.Delay(30 * Nanosecond)
		}
	})
	k.SpawnDaemon("b", func(p *Proc) {
		for {
			v := chB.Recv(p)
			gotB = append(gotB, p.Now())
			p.Delay(70 * Nanosecond)
			k.At(p.Now()+lat, func() { chA.TrySend(v) })
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return gotA, gotB
}

func pingPongSplit(rounds int, lat Time) ([]Time, []Time, *Engine) {
	e := NewEngine()
	lpA := e.AddLP("a")
	lpB := e.AddLP("b")
	chA := NewChan[int](lpA.K, 8)
	chB := NewChan[int](lpB.K, 8)
	toB := NewPortal[int]("a->b", lpA, lpB, lat, func(t Time, v int) { chB.TrySend(v) })
	toA := NewPortal[int]("b->a", lpB, lpA, lat, func(t Time, v int) { chA.TrySend(v) })
	var gotA, gotB []Time
	lpA.K.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			toB.Post(p, i)
			got := chA.Recv(p)
			gotA = append(gotA, p.Now())
			if got != i {
				panic("order")
			}
			p.Delay(30 * Nanosecond)
		}
	})
	lpB.K.SpawnDaemon("b", func(p *Proc) {
		for {
			v := chB.Recv(p)
			gotB = append(gotB, p.Now())
			p.Delay(70 * Nanosecond)
			toA.Post(p, v)
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return gotA, gotB, e
}

// TestEngineSplitMatchesFused is the core conformance property: the same
// model partitioned across two LPs with lookahead-bearing portals produces
// the exact virtual-time trace of the fused sequential run.
func TestEngineSplitMatchesFused(t *testing.T) {
	const rounds = 500
	const lat = 150 * Nanosecond
	fa, fb := pingPongFused(rounds, lat)
	sa, sb, e := pingPongSplit(rounds, lat)
	if len(fa) != rounds || len(fb) != rounds {
		t.Fatalf("fused run incomplete: %d/%d receives", len(fa), len(fb))
	}
	for i := range fa {
		if sa[i] != fa[i] {
			t.Fatalf("side A receive %d: split %v, fused %v", i, sa[i], fa[i])
		}
		if sb[i] != fb[i] {
			t.Fatalf("side B receive %d: split %v, fused %v", i, sb[i], fb[i])
		}
	}
	if e.la != lat {
		t.Fatalf("engine lookahead %v, want %v", e.la, lat)
	}
}

// TestEngineNeedsAPortal: LPs that exchange nothing are independent
// replicas, which internal/par runs; the engine refuses them rather than
// keep a second mode for them.
func TestEngineNeedsAPortal(t *testing.T) {
	e := NewEngine()
	e.AddLP("rep0").K.Spawn("work", func(p *Proc) { p.Delay(Microsecond) })
	e.AddLP("rep1").K.Spawn("work", func(p *Proc) { p.Delay(Microsecond) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "internal/par") {
			t.Fatalf("want a panic pointing at internal/par, got %v", r)
		}
	}()
	e.Run()
}

// TestEngineDeadlockNamesLPs: a cross-LP hang must name every stuck LP and
// its local virtual time: each line of the hang report carries its LP's tag.
func TestEngineDeadlockNamesLPs(t *testing.T) {
	e := NewEngine()
	lpA := e.AddLP("part0")
	lpB := e.AddLP("part1")
	NewPortal[int]("x", lpA, lpB, 100*Nanosecond, func(Time, int) {})
	var sigA, sigB Signal
	lpA.K.Spawn("stuckA", func(p *Proc) {
		p.Delay(3 * Microsecond)
		sigA.Wait(p)
	})
	lpB.K.Spawn("stuckB", func(p *Proc) {
		p.Delay(7 * Microsecond)
		sigB.Wait(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"\n[lp part0 @ 3.000us] stuckA: signal", "\n[lp part1 @ 7.000us] stuckB: signal"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report %q missing %q", msg, want)
		}
	}
}

// TestEngineFailureNamesLP: a Proc panic inside one LP surfaces as that
// LP-labeled failure from Engine.Run.
func TestEngineFailureNamesLP(t *testing.T) {
	e := NewEngine()
	lpA := e.AddLP("part0")
	lpB := e.AddLP("part1")
	NewPortal[int]("x", lpA, lpB, 100*Nanosecond, func(Time, int) {})
	lpA.K.Spawn("idle", func(p *Proc) { p.Delay(Microsecond) })
	lpB.K.Spawn("bomb", func(p *Proc) {
		p.Delay(500 * Nanosecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `[lp part1 @ 500ns] proc "bomb" panicked: boom`) {
		t.Fatalf("want LP-labeled panic, got %v", err)
	}
}

// TestRunBeforeStrictBound: RunBefore executes strictly below its bound and
// leaves the clock at the last executed event, not the bound.
func TestRunBeforeStrictBound(t *testing.T) {
	k := NewKernel()
	var ran []Time
	k.At(5, func() { ran = append(ran, 5) })
	k.At(10, func() { ran = append(ran, 10) })
	if err := k.RunBefore(10); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 5 {
		t.Fatalf("RunBefore(10) ran %v, want [5ns]", ran)
	}
	if k.Now() != 5 {
		t.Fatalf("clock %v after strict window, want 5ns", k.Now())
	}
	if nt, ok := k.NextEventTime(); !ok || nt != 10 {
		t.Fatalf("next event %v/%v, want 10ns", nt, ok)
	}
	if err := k.RunBefore(11); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || ran[1] != 10 {
		t.Fatalf("second window ran %v", ran)
	}
}

// TestPortalLookaheadEnforced: a post faster than the portal's lookahead is
// a model bug and must be caught, not silently reordered.
func TestPortalLookaheadEnforced(t *testing.T) {
	e := NewEngine()
	lpA := e.AddLP("part0")
	lpB := e.AddLP("part1")
	pt := NewPortal[int]("x", lpA, lpB, 100*Nanosecond, func(Time, int) {})
	lpB.K.Spawn("idle", func(p *Proc) { p.Delay(Microsecond) })
	lpA.K.Spawn("cheat", func(p *Proc) {
		p.Delay(Microsecond)
		pt.PostAt(p.Now()+99*Nanosecond, 1) // 1ns short of the lookahead
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "violates lookahead") {
		t.Fatalf("want lookahead violation, got %v", err)
	}
}

// TestEngineSequentialLabelsUnchanged: an unlabeled kernel's deadlock is
// ErrDeadlock's sentence and the hang report, whose lines carry no LP tag.
func TestEngineSequentialLabelsUnchanged(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("stuck", func(p *Proc) { sig.Wait(p) })
	err := k.Run()
	want := "sim: deadlock: live processes with empty event queue:\nstuck: signal"
	if err == nil || err.Error() != want {
		t.Fatalf("sequential deadlock text changed: %q, want %q", err, want)
	}
}
