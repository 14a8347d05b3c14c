package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Pins of the Machine, lazy-launch and coroutine contracts beside the
// differential matrix (differential_test.go).

// failing is a Machine that ticks every 100 ns and misbehaves at its third
// wake.
type failing struct {
	wakes int
	how   func(p *Proc)
}

func (m *failing) Step(p *Proc) {
	if m.wakes++; m.wakes == 3 {
		m.how(p)
	}
	p.StartDelay(100)
}

// A Machine that calls a blocking primitive fails the run with a panic naming
// it, not a dispatcher blocked forever. (A panic in Step fails the run in the
// Machine's name as a goroutine's does: TestMachineMatchesGoroutineDriver.)
func TestMachinePanicFailsRunNamingProc(t *testing.T) {
	for name, block := range map[string]func(p *Proc){
		"Delay":   func(p *Proc) { p.Delay(1) },
		"Recv":    func(p *Proc) { NewChan[int](p.Kernel(), 0).Recv(p) },
		"Acquire": func(p *Proc) { r := NewResource(p.Kernel(), "r", 1); r.Acquire(p, 1); r.Acquire(p, 1) },
		"Park":    func(p *Proc) { p.Park() },
	} {
		k := NewKernel()
		k.Spawn("bystander", func(p *Proc) { p.Delay(Microsecond) })
		k.spawnMachine("fw", &failing{how: block})
		if got, at := firstLine(k.Run()), k.Now(); !strings.HasPrefix(got, `sim: proc "fw" panicked: sim: proc "fw" is a Machine`) || at != 200 {
			t.Fatalf("%s from a Step: run ended %q at %v", name, got, at)
		}
	}
}

// Machines have no coroutine to resume into the unwind: a drained run, a
// stopped run and Shutdown after a bounded run must all retire them —
// mid-delay, queued on a Chan, queued on a Resource — without one.
func TestMachineRetiredWithoutHandshake(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		r := &run{k: k, chans: []*Chan[int]{NewChan[int](k, 0)}, ress: []*Resource{NewResource(k, "r", 1)}}
		for _, op := range []scriptOp{{kind: opDelay, d: 300}, {kind: opRecv}, {kind: opUse}} {
			k.spawnMachine("m", &scripted{r: r, name: "m", ops: []scriptOp{op}})
		}
		k.Spawn("holder", func(p *Proc) {
			r.ress[0].Acquire(p, 1)
			p.Delay(Microsecond)
		})
		return k
	}
	k := build()
	k.SpawnAt(500, "stop", func(*Proc) { k.stop() })
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run: %v", err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d Procs still registered after a stopped run", len(k.procs))
	}
	k = build()
	if err := k.RunUntil(500); err != nil || k.Live() != 1 {
		t.Fatalf("bounded run: err=%v live=%d", err, k.Live())
	}
	k.Shutdown()
	if len(k.procs) != 0 {
		t.Fatalf("%d Procs still registered after Shutdown", len(k.procs))
	}
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("run after shutdown: %v", err)
	}
}

// A goroutine Proc is given its coroutine at its first wake, so spawning
// costs none, and a Proc unwound before it ever starts — a run stopped first,
// a bounded run shut down — is retired by bookkeeping, as a Machine is.
func TestProcGetsItsGoroutineAtFirstWake(t *testing.T) {
	const n, slack = 200, 16
	build := func() (*Kernel, *int) {
		k, started := NewKernel(), new(int)
		for i := 1; i <= n; i++ {
			k.SpawnAt(Time(i)*Microsecond, "late", func(p *Proc) { *started++; p.Delay(Second) })
		}
		k.SpawnDaemon("service", func(p *Proc) { *started++; p.Delay(Second) })
		return k, started
	}
	before := runtime.NumGoroutine()
	k, started := build()
	if grew := runtime.NumGoroutine() - before; grew > slack {
		t.Fatalf("spawning %d Procs started %d goroutines", n+1, grew)
	}
	if err := k.RunUntil(n / 2 * Microsecond); err != nil || *started != n/2+1 || k.Live() != n {
		t.Fatalf("bounded run: err=%v, %d Procs started, %d live", err, *started, k.Live())
	}
	// Upper bound only: goroutines of earlier tests may still be exiting.
	if grew := runtime.NumGoroutine() - before; grew > n/2+1+slack {
		t.Fatalf("%d Procs started, %d goroutines more than before", *started, grew)
	}
	k.Shutdown()
	if *started != n/2+1 || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("after Shutdown: %d Procs started, %d live, %d registered", *started, k.Live(), len(k.procs))
	}

	k, started = build()
	k.stop()
	if err := k.Run(); !errors.Is(err, ErrStopped) || *started != 0 || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("stopped before it ran: err=%v, %d Procs started, %d live, %d registered", err, *started, k.Live(), len(k.procs))
	}
}

func freeCoroutines() int {
	coroutines.Lock()
	defer coroutines.Unlock()
	return len(coroutines.free)
}

// An ended Proc's coroutine goes back to the free list both ways a Proc
// ends — its function returns, or Shutdown unwinds it — and the next
// kernel's Procs take it from there: a second kernel of n Procs starts no
// goroutine.
func TestCoroutinesAreRecycled(t *testing.T) {
	const slack = 16
	for _, end := range []struct {
		how string
		end func(k *Kernel) error
	}{
		{"returned", (*Kernel).Run},
		{"unwound", func(k *Kernel) error { k.Shutdown(); return nil }},
	} {
		n := freeCoroutines() + 200 // more than the list holds: the first kernel makes 200
		parked := func() *Kernel {
			k := NewKernel()
			for i := 0; i < n; i++ {
				k.Spawn("p", func(p *Proc) { p.Delay(Millisecond) })
			}
			if err := k.RunUntil(Microsecond); err != nil || k.Live() != n {
				t.Fatalf("bounded run: err=%v, %d live", err, k.Live())
			}
			return k
		}
		if err := end.end(parked()); err != nil {
			t.Fatal(err)
		}
		if free := freeCoroutines(); free < n {
			t.Fatalf("%s: %d coroutines free after %d Procs ended", end.how, free, n)
		}
		before := runtime.NumGoroutine()
		k := parked()
		grew := runtime.NumGoroutine() - before
		if err := end.end(k); err != nil {
			t.Fatal(err)
		}
		if grew > slack {
			t.Fatalf("%s: a second kernel of %d parked Procs started %d goroutines", end.how, n, grew)
		}
	}
}

// A Proc that calls runtime.Goexit, as t.FailNow does, takes the goroutine
// that called Run with it: that goroutine runs its defers and exits, Run
// does not return, nothing hangs, and nothing more runs. Shutdown from
// another goroutine unwinds the Procs left parked.
func TestProcGoexitEndsRunsCaller(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("bystander", func(p *Proc) { p.Delay(Second); ran = true })
	k.Spawn("quitter", func(p *Proc) { p.Delay(Microsecond); runtime.Goexit() })
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		k.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(time.Minute):
		t.Fatal("Run's caller hung after a Proc called runtime.Goexit")
	}
	if returned || ran || k.Now() != Microsecond {
		t.Fatalf("Run returned: %v, bystander resumed: %v, clock %v (want false, false, 1us)", returned, ran, k.Now())
	}
	k.Shutdown()
	if ran || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("after Shutdown: bystander resumed: %v, %d live, %d registered", ran, k.Live(), len(k.procs))
	}
}
