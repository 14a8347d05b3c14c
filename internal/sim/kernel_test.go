package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Delay(5 * Microsecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Microsecond {
		t.Fatalf("got %v, want 5us", at)
	}
	if k.Now() != 5*Microsecond {
		t.Fatalf("kernel clock %v, want 5us", k.Now())
	}
}

func TestEventOrderingFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.SpawnAt(Time(3*Microsecond), fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of spawn order: %v", order)
		}
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Delay(Time(i+1) * Microsecond)
					trace = append(trace, fmt.Sprintf("%d@%v", i, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Delay(Microsecond)
		k.Spawn("child", func(c *Proc) {
			c.Delay(Microsecond)
			childRan = true
		})
		p.Delay(5 * Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Delay(Microsecond)
			ticks++
		}
	})
	if err := k.RunUntil(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*Microsecond {
		t.Fatalf("clock %v, want 10us", k.Now())
	}
	// Resume to completion.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100 after resume", ticks)
	}
}

// A RunUntil whose horizon is already behind the clock runs nothing and
// leaves the clock where it is: time never goes back, so no later wake can
// be queued before an event already popped.
func TestRunUntilBehindTheClock(t *testing.T) {
	k := NewKernel()
	var woke []Time
	k.Spawn("ticker", func(p *Proc) {
		for range 3 {
			p.Delay(Microsecond)
			woke = append(woke, p.Now())
		}
	})
	if err := k.RunUntil(1500 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(1200 * Nanosecond); err != nil || k.Now() != 1500*Nanosecond {
		t.Fatalf("RunUntil(1.2us) at 1.5us: err %v, clock %v; want nil at 1.5us", err, k.Now())
	}
	k.Spawn("late", func(p *Proc) { woke = append(woke, p.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{Microsecond, 1500, 2 * Microsecond, 3 * Microsecond}; !slices.Equal(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
}

// A wake before now is refused, naming the Proc that asked for it: a Delay
// whose end overflows Time is one.
func TestWakeBeforeNowPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("overflow", func(p *Proc) {
		p.Delay(Microsecond)
		p.Delay(Quiet) // now + Quiet wraps below zero
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `before now 1.000us in proc "overflow"`) {
		t.Fatalf("err = %v, want the refused wake naming proc \"overflow\"", firstLine(err))
	}
	if k.Now() != Microsecond {
		t.Fatalf("clock at %v, want 1us: the refused wake must not move it", k.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("stuck", func(p *Proc) { sig.Wait(p) })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Delay(Microsecond)
		panic("kaboom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("loop", func(p *Proc) {
		for {
			p.Delay(Microsecond)
			steps++
			if steps == 5 {
				k.stop()
			}
		}
	})
	err := k.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			order = append(order, i)
		})
	}
	k.Spawn("kicker", func(p *Proc) {
		p.Delay(Microsecond)
		sig.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("broadcast order %v, want FIFO", order)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.SpawnAt(Time(i)*Microsecond, fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 10*Microsecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
	if k.Now() != 50*Microsecond {
		t.Fatalf("end time %v, want 50us (serialized)", k.Now())
	}
}

func TestResourceNoQueueJumping(t *testing.T) {
	// A 1-unit request behind a queued 3-unit request must not jump ahead.
	k := NewKernel()
	r := NewResource(k, "pool", 3)
	var order []string
	k.SpawnAt(0, "big-holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Delay(10 * Microsecond)
		r.Release(2)
	})
	k.SpawnAt(Microsecond, "wants3", func(p *Proc) {
		r.Acquire(p, 3)
		order = append(order, "wants3")
		r.Release(3)
	})
	k.SpawnAt(2*Microsecond, "wants1", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "wants1")
		r.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "wants3" || order[1] != "wants1" {
		t.Fatalf("order = %v, want [wants3 wants1]", order)
	}
}

func TestPerByteAndBytesTime(t *testing.T) {
	if BytesTime(1000, 100) != 10*Microsecond {
		t.Fatalf("BytesTime(1000B, 100MB/s) = %v, want 10us", BytesTime(1000, 100))
	}
	if got := MBps(1e6, Second); got != 1 {
		t.Fatalf("MBps = %v, want 1", got)
	}
}

// Property: for any schedule of producer delays and channel capacity, all
// items arrive exactly once, in order, and the channel never holds more than
// its capacity.
func TestChanPropertyFIFO(t *testing.T) {
	f := func(delays []uint8, capacity uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 64 {
			delays = delays[:64]
		}
		cp := int(capacity % 8)
		k := NewKernel()
		ch := NewChan[int](k, cp)
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i, d := range delays {
				p.Delay(Time(d) * Nanosecond)
				ch.Send(p, i)
				if ch.Len() > cp {
					t.Errorf("channel over capacity: %d > %d", ch.Len(), cp)
				}
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for range delays {
				v := ch.Recv(p)
				p.Delay(3 * Nanosecond)
				got = append(got, v)
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](k, 0)
	var sendDone, recvAt Time
	k.Spawn("sender", func(p *Proc) {
		ch.Send(p, "hello")
		sendDone = p.Now()
	})
	k.Spawn("receiver", func(p *Proc) {
		p.Delay(10 * Microsecond)
		if v := ch.Recv(p); v != "hello" {
			t.Errorf("got %q", v)
		}
		recvAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 10*Microsecond {
		t.Fatalf("recv at %v", recvAt)
	}
	_ = sendDone
}

func TestChanBackpressure(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var sendTimes []Time
	k.Spawn("sender", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ch.Send(p, i)
			sendTimes = append(sendTimes, p.Now())
		}
	})
	k.Spawn("slow-consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Delay(10 * Microsecond)
			ch.Recv(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First two sends fill the buffer at t=0; 3rd and 4th stall behind recvs.
	if sendTimes[0] != 0 || sendTimes[1] != 0 {
		t.Fatalf("first sends stalled: %v", sendTimes)
	}
	if sendTimes[2] != 10*Microsecond || sendTimes[3] != 20*Microsecond {
		t.Fatalf("backpressure not applied: %v", sendTimes)
	}
}

func TestChanTryOps(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	k.Spawn("p", func(p *Proc) {
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on empty channel succeeded")
		}
		if !ch.TrySend(1) {
			t.Error("TrySend on empty channel failed")
		}
		if ch.TrySend(2) {
			t.Error("TrySend on full channel succeeded")
		}
		v, ok := ch.TryRecv()
		if !ok || v != 1 {
			t.Errorf("TryRecv = %d,%v", v, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: resource accounting never exceeds capacity and all users finish.
func TestResourcePropertyCapacity(t *testing.T) {
	f := func(reqs []uint8, capacity uint8) bool {
		cp := int(capacity%4) + 1
		if len(reqs) > 32 {
			reqs = reqs[:32]
		}
		k := NewKernel()
		r := NewResource(k, "r", cp)
		finished := 0
		for i, rq := range reqs {
			n := int(rq)%cp + 1
			k.SpawnAt(Time(i)*Nanosecond, fmt.Sprintf("u%d", i), func(p *Proc) {
				r.Acquire(p, n)
				if r.inUse > cp {
					t.Errorf("over capacity: %d > %d", r.inUse, cp)
				}
				p.Delay(Time(rq) * Nanosecond)
				r.Release(n)
				finished++
			})
		}
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		return finished == len(reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{5 * Microsecond, "5.000us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// BenchmarkKernelChurn locks in the allocation behavior of the event-queue
// hot path: a long Delay chain pushes and pops one event per step. The
// queue's node arena is reused throughout, and a parking Proc hands the
// token on by coroutine switch, never through a channel and the Go
// scheduler. The exact steady-state pin — 0 allocs per event — lives in
// TestKernelEventLoopZeroAlloc.
func BenchmarkKernelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 4; j++ {
			k.Spawn("p", func(p *Proc) {
				for step := 0; step < 2500; step++ {
					p.Delay(Microsecond)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// churner is a Machine that re-arms itself after a drawn delay, a multiple
// of 50 ns up to 3.15 us, zero included: with n of them a kernel's event
// queue holds n wakes, with ties at one instant among them.
type churner struct {
	x uint64 // LCG state
	*churn
}

// churn is what a kernel's churners share: the steps taken, and the step
// at which the run stops (0: never).
type churn struct{ steps, stop int }

func (c *churner) Step(p *Proc) {
	if c.steps++; c.steps == c.stop {
		p.Kernel().stop()
	}
	c.x = c.x*6364136223846793005 + 1442695040888963407
	p.StartDelay(Time(c.x>>58) * 50)
}

// spawnChurners queues n churners on k.
func spawnChurners(k *Kernel, n int) *churn {
	c := new(churn)
	for i := range n {
		k.spawnMachine("churn", &churner{uint64(i), c})
	}
	return c
}

// BenchmarkEventQueue is the dispatcher's cost per event at three queue
// depths: each op pops the least wake, steps its Machine and pushes the
// Machine's next wake, with no coroutine switch in the way.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{4, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := NewKernel()
			c := spawnChurners(k, depth)
			if err := k.RunUntil(20 * Microsecond); err != nil { // warm-up: the arena grown
				b.Fatal(err)
			}
			c.stop = c.steps + b.N
			b.ResetTimer()
			if err := k.Run(); !errors.Is(err, ErrStopped) {
				b.Fatal(err)
			}
		})
	}
}

// A lane that fills while its ring is wrapped grows without losing its
// order: every tick still pops in (t, seq) order.
func TestPollLaneGrowsWhileWrapped(t *testing.T) {
	var l lane
	seq := uint64(0)
	push := func() {
		e := l.Push()
		e.t, e.seq = Time(seq), seq
		seq++
	}
	want := uint64(0)
	pop := func() {
		if e := *l.Front(); e.seq != want || e.t != Time(want) {
			t.Fatalf("popped (%v, %d), want (%v, %d)", e.t, e.seq, Time(want), want)
		}
		l.Pop()
		want++
	}
	for i := 0; i < 5; i++ { // a fresh ring, its head moved off 0
		push()
		pop()
	}
	for l.n <= 16 {
		push()
	}
	if len(l.ring) != 32 {
		t.Fatalf("ring of %d after %d pushes; the lane did not grow", len(l.ring), l.n)
	}
	for l.n > 0 {
		pop()
	}
}
