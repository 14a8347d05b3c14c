package sim

import (
	"errors"
	"testing"

	"repro/internal/alloctest"
)

// The pins below measure inside a Proc, after a warm-up has populated every
// free list and grown every backing array. At most one Proc runs at any
// instant under the kernel, so what survives alloctest.MinMallocs's
// min-of-windows is attributable to the measured loop, and the pin is on
// the PER-OP rate: a real per-op allocation shows up thousands of times
// over these op counts.

// TestKernelEventLoopZeroAlloc is the alloc-regression gate on the event
// loop: after warm-up, a Delay chain — push, pop, the parking Proc finding
// its own wake next — must allocate nothing. This extends the BenchmarkKernelChurn pin
// (which includes setup) to an exact steady-state zero.
func TestKernelEventLoopZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const steps = 50_000
	k := NewKernel()
	var allocs uint64
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 1000; i++ { // warm-up: queue growth, handoff slots
			p.Delay(Microsecond)
		}
		allocs = alloctest.MinMallocs(func() {
			for i := 0; i < steps; i++ {
				p.Delay(Microsecond)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("kernel event loop allocated %d times over %d events; steady state must be 0/op",
			allocs, steps)
	}
}

// TestEventQueueZeroAlloc pins the event queue at depth: with 4 096 wakes
// pending, each Machine re-arming as it pops, 200 µs of steady state — some
// half a million pushes and pops, a spill for every new instant — allocate
// nothing once the node arena has grown, and the arena holds no more nodes
// than there are wakes pending.
func TestEventQueueZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const depth, delays = 4096, 200
	k := NewKernel()
	spawnChurners(k, depth)
	var allocs uint64
	k.Spawn("meter", func(p *Proc) {
		p.Delay(20 * Microsecond) // warm-up: the arena grown
		allocs = alloctest.MinMallocs(func() {
			for range delays {
				p.Delay(Microsecond)
			}
		})
		k.Stop()
	})
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("%d µs at %d pending wakes allocated %d times; steady state must be 0", delays, depth, allocs)
	}
	if n := len(k.eq.nodes); n > depth+2 { // the churners', the meter's, the sentinel
		t.Fatalf("the arena grew to %d nodes for %d pending wakes; popped nodes must be reused", n, depth+1)
	}
}

// TestProcLifecycleZeroAlloc pins the coroutine free list: after warm-up, a
// goroutine Proc that is spawned, started, parked behind another Proc,
// resumed and ended allocates its Proc and nothing else — it runs on the
// coroutine the Proc before it gave back.
func TestProcLifecycleZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const procs = 5000
	k := NewKernel()
	var allocs uint64
	child := func(c *Proc) { c.Delay(Nanosecond) }
	k.Spawn("spawner", func(p *Proc) {
		lifetimes := func() {
			for i := 0; i < procs; i++ {
				k.Spawn("child", child)
				p.Delay(Nanosecond) // the child starts and parks; both resume at +1ns
			}
		}
		lifetimes() // warm-up: free list, queue and registry grown
		allocs = alloctest.MinMallocs(lifetimes)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > procs+alloctest.AllowStray {
		t.Fatalf("%d Proc lifetimes allocated %d times; must be 1 each (the Proc)", procs, allocs)
	}
}

// TestChanSteadyStateZeroAlloc pins the ring-buffer Chan: steady
// send/recv cycling (both buffered flow and blocking handoff) reuses the
// ring, the wait queues, and the receiver handoff slots.
func TestChanSteadyStateZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ops = 20_000
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var allocs uint64
	done := false
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 1000; i++ { // warm-up
			ch.Send(p, i)
		}
		allocs = alloctest.MinMallocs(func() {
			for i := 0; i < ops; i++ {
				ch.Send(p, i)
			}
		})
		done = true
	})
	k.SpawnDaemon("consumer", func(p *Proc) {
		for {
			ch.Recv(p)
			p.Delay(Nanosecond) // force the producer into back-pressure parks
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("producer did not finish")
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("chan steady state allocated %d times over %d ops; must be 0/op", allocs, ops)
	}
}

// TestSignalSteadyStateZeroAlloc pins the Signal wait queue's backing reuse.
func TestSignalSteadyStateZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ops = 10_000
	k := NewKernel()
	var sig Signal
	var allocs uint64
	k.SpawnDaemon("waiter", func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		for i := 0; i < 100; i++ { // warm-up
			sig.Signal()
			p.Delay(Nanosecond)
		}
		allocs = alloctest.MinMallocs(func() {
			for i := 0; i < ops; i++ {
				sig.Signal()
				p.Delay(Nanosecond)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("signal steady state allocated %d times over %d ops; must be 0/op", allocs, ops)
	}
}

// TestPollEveryZeroAlloc pins the dispatcher-side poll tick: an idle stretch
// of 10 000 ticks — condition call, wake re-armed in its period's lane —
// allocates nothing, and neither does entering or leaving the wait.
func TestPollEveryZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ticks = 10_000
	k := NewKernel()
	var allocs uint64
	k.Spawn("poller", func(p *Proc) {
		c := idleFor(ticks)
		p.PollEvery(Microsecond, c) // warm-up
		allocs = alloctest.MinMallocs(func() { p.PollEvery(Microsecond, c) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("an idle stretch of %d poll ticks allocated %d times; must be 0", ticks, allocs)
	}
}

// TestPollCycleZeroAlloc is the same pin for the two-period wait: 10 000
// ticks alternating an empty poll and a pause, none of them a malloc.
func TestPollCycleZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ticks = 10_000
	k := NewKernel()
	var allocs uint64
	k.Spawn("poller", func(p *Proc) {
		c := idleFor(ticks)
		p.PollCycle(Microsecond, 5*Microsecond, c) // warm-up
		allocs = alloctest.MinMallocs(func() { p.PollCycle(Microsecond, 5*Microsecond, c) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("an idle stretch of %d two-period ticks allocated %d times; must be 0", ticks, allocs)
	}
}

// pollUntil is idle until *done.
type pollUntil struct{ done *bool }

func (c pollUntil) Idle() Time {
	if *c.done {
		return Busy
	}
	return Quiet
}

func (pollUntil) Describe() (string, int, []int) { return "poll", -1, nil }

// TestPollLanesZeroAlloc pins the lanes themselves: two pollers on two
// periods, one entering and leaving 1 000 short waits that alternate both
// lanes, the other idle on the slower one throughout. Each lane's ring wraps
// hundreds of times over; a lane that grew, or was re-opened, per wait would
// show here.
func TestPollLanesZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const waits = 1000
	k := NewKernel()
	var allocs uint64
	done := false
	k.Spawn("background", func(p *Proc) { p.PollEvery(3*Microsecond, pollUntil{&done}) })
	k.Spawn("poller", func(p *Proc) {
		c := idleFor(10)
		stretches := func() {
			for i := 0; i < waits; i++ {
				p.PollCycle(Microsecond, 3*Microsecond, c)
			}
		}
		stretches() // warm-up: both lanes opened, rings sized
		allocs = alloctest.MinMallocs(stretches)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.lanes) != 2 {
		t.Fatalf("%d lanes, want 2", len(k.lanes))
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("%d waits over two poll lanes allocated %d times; must be 0", waits, allocs)
	}
}

// TestDormantPollZeroAlloc pins dormancy: a poller acting for a node goes
// dormant on its first idle verdict, its ticks are rotated in the lane, and
// a Proc of its node ends the stretch — 1 000 such stretches of 100 ticks,
// each setter spawned and tagged afresh, allocate the setters' Procs and
// nothing else.
func TestDormantPollZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const stretches, ticks = 1000, 100
	k := NewKernel()
	var allocs uint64
	done := false
	set := func(p *Proc) { p.Delay(ticks * Microsecond); done = true }
	poller := k.Spawn("poller", func(p *Proc) {
		run := func() {
			for i := 0; i < stretches; i++ {
				done = false
				k.Spawn("setter", set).ActsFor(7)
				p.PollEvery(Microsecond, pollUntil{&done})
			}
		}
		run() // warm-up: the lane, the free lists and the registry grown
		allocs = alloctest.MinMallocs(run)
	})
	poller.ActsFor(7)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c := k.Census(); c.Dormant < 2*stretches*(ticks-2) {
		t.Fatalf("%d dormant ticks over %d stretches of %d; the poller did not go dormant", c.Dormant, 2*stretches, ticks)
	}
	if allocs > stretches+alloctest.AllowStray {
		t.Fatalf("%d dormant stretches allocated %d times; must be 1 each (the setter)", stretches, allocs)
	}
}
