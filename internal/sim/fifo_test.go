package sim

import (
	"math/rand/v2"
	"testing"

	"repro/internal/alloctest"
)

// qItem carries a pointer so a slot Pop failed to zero is visible.
type qItem struct {
	v int
	p *int
}

// deadSlotsZero reports whether every ring slot outside q's live window
// holds the zero value.
func deadSlotsZero[T comparable](q *Queue[T]) bool {
	var zero T
	for i := q.n; i < len(q.ring); i++ {
		if q.ring[(q.head+i)&(len(q.ring)-1)] != zero {
			return false
		}
	}
	return true
}

// Queue is held to a slice model over seeded interleavings of Push and Pop
// whose depth climbs and falls, so the ring grows both from a fresh head and
// while wrapped (head != 0), and every Pop must leave its slot zeroed.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1998, 45))
	var q Queue[qItem]
	var model []int
	wrappedGrowths := 0
	for step := 0; step < 20000; step++ {
		// Phases of 500 steps lean to pushing, then to popping.
		push := rng.IntN(100) < 70
		if step/500%2 == 1 {
			push = !push
		}
		if push || len(model) == 0 {
			if q.n == len(q.ring) && q.head != 0 {
				wrappedGrowths++
			}
			v := step
			*q.Push() = qItem{v, &v}
			model = append(model, v)
		} else {
			if got := q.Pop(); got.v != model[0] || got.p == nil || *got.p != model[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got.v, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, q.Len(), len(model))
		}
		if len(model) > 0 && q.Front().v != model[0] {
			t.Fatalf("step %d: Front %d, want %d", step, q.Front().v, model[0])
		}
		if !deadSlotsZero(&q) {
			t.Fatalf("step %d: a vacated slot still holds its entry", step)
		}
	}
	if wrappedGrowths == 0 || len(q.ring) < 64 {
		t.Fatalf("the ring grew while wrapped %d times and reached %d slots; the walk lost its coverage", wrappedGrowths, len(q.ring))
	}
}

// quietIdler keeps a poller dormant until *done is set.
type quietIdler struct{ done *bool }

func (q quietIdler) Idle() Time {
	if *q.done {
		return Busy
	}
	return Quiet
}

func (quietIdler) Describe() (string, int, []int) { return "quiet poll", -1, nil }

// Dormant rotation moves a tick in place on its lane's ring (one period) or
// pops it to the other lane (two periods). Either way the slot it leaves
// must hold no Proc, as after Pop, or the hang report's scan of every lane
// slot would find a stale wake.
func TestLaneRotationClearsVacatedSlots(t *testing.T) {
	k := NewKernel()
	done := false
	for i := 0; i < 11; i++ {
		k.Spawn("poller", func(p *Proc) {
			p.ActsFor(i)
			if i%3 == 0 {
				p.PollCycle(10*Nanosecond, 7*Nanosecond, quietIdler{&done})
			} else {
				p.PollEvery(10*Nanosecond, quietIdler{&done})
			}
		})
	}
	k.SpawnAt(Microsecond, "done", func(*Proc) { done = true })
	if err := k.RunUntil(Microsecond - 1); err != nil {
		t.Fatal(err)
	}
	if c := k.Census(); c.Dormant == 0 {
		t.Fatalf("no tick was rotated: %+v", c)
	}
	for i := range k.lanes {
		l := &k.lanes[i]
		for j := l.n; j < len(l.ring); j++ {
			if l.ring[(l.head+j)&(len(l.ring)-1)].proc != nil {
				t.Fatalf("lane %d (period %v) holds a Proc in a vacated slot", i, l.d)
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateZeroAlloc pins Push and Pop once the ring has grown:
// a queue cycling within its depth allocates nothing.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ops = 50_000
	var q Queue[qItem]
	x := 0
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			*q.Push() = qItem{i, &x}
			*q.Push() = qItem{i, &x}
			q.Pop()
			if q.Len() > 100 {
				for q.Len() > 0 {
					q.Pop()
				}
			}
		}
	}
	cycle(1000) // warm-up: the ring reaches its depth
	if allocs := alloctest.MinMallocs(func() { cycle(ops) }); allocs > alloctest.AllowStray {
		t.Fatalf("%d Push/Pop cycles allocated %d times; steady state must be 0/op", ops, allocs)
	}
}
