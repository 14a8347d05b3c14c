package mpifm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/sim"
	"repro/internal/xport"
)

// barrierDepth is a dissemination barrier's round count at n ranks: ⌈log₂ n⌉.
func barrierDepth(n int) int { return bits.Len(uint(n - 1)) }

// barrierWorld is an n-rank world of generation g on one switch. A platform
// has at least two nodes, so a one-rank world is the first node's.
func barrierWorld(g xport.Gen, n int) (*sim.Kernel, []*Comm) {
	m := g.Machine()
	k := sim.NewKernel()
	pl := cluster.New(k, m.Config(max(n, 2), cluster.SingleSwitch))
	return k, Attach(xport.Spaces(xport.AttachEndpoints(pl, m), Service)[:n], m.Profile.MPI, Options{})
}

// TestBarrier runs 10 barriers back to back on each size, every rank
// entering each one after a seeded random skew, and checks that no rank
// leaves a barrier before the last rank has entered it, that nothing hangs,
// and that once every rank has extracted what is left no credit is
// outstanding. FM 1.x at 16 ranks and FM 2.x at 64 run with the credit window
// at its flowctl.MinWindow floor.
func TestBarrier(t *testing.T) {
	const barriers = 10
	for _, w := range []struct {
		g     xport.Gen
		floor int // the size whose credit window sits at flowctl.MinWindow
	}{{xport.GenFM1, 16}, {xport.GenFM2, 64}} {
		t.Run(w.g.String(), func(t *testing.T) {
			for _, n := range []int{1, 3, 4, 5, 6, 7, 12, w.floor} {
				t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
					k, comms := barrierWorld(w.g, n)
					rng := rand.New(rand.NewSource(int64(n)))
					var skew, enter, leave [barriers][]sim.Time
					for b := range skew {
						skew[b], enter[b], leave[b] = make([]sim.Time, n), make([]sim.Time, n), make([]sim.Time, n)
						for r := range skew[b] {
							skew[b][r] = sim.Time(rng.Intn(60_000)) * sim.Nanosecond
						}
					}
					for r, c := range comms {
						k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
							for b := range skew {
								p.Delay(skew[b][r])
								enter[b][r] = p.Now()
								if err := c.Barrier(p); err != nil {
									t.Error(err)
									return
								}
								leave[b][r] = p.Now()
							}
							// Drain: the first Extract takes what is still in
							// the ring, the second, on an empty ring, returns
							// the credit this rank owes, and the third takes
							// the credit owed to it.
							for range 3 {
								p.Delay(100 * sim.Microsecond)
								c.t.Extract(p, 0)
							}
						})
					}
					if err := k.RunUntil(sim.Second); err != nil {
						t.Fatal(err)
					}
					defer k.Shutdown()
					if k.Live() > 0 {
						t.Fatalf("hung at %v:\n%s", k.Now(), k.HangReport())
					}
					for b := range skew {
						last, first := enter[b][0], leave[b][0]
						for r := range n {
							last, first = max(last, enter[b][r]), min(first, leave[b][r])
						}
						if first < last {
							t.Errorf("barrier %d: a rank left at %v, before the last entered at %v", b, first, last)
						}
					}
					for r, c := range comms {
						fc := c.t.Core().FlowControl()
						if n == w.floor && fc.Window() != flowctl.MinWindow {
							t.Errorf("rank %d: credit window %d, want the %d floor", r, fc.Window(), flowctl.MinWindow)
						}
						for dst := range n {
							if dst != r && fc.Outstanding(dst) != 0 {
								t.Errorf("rank %d: %d credits outstanding to rank %d", r, fc.Outstanding(dst), dst)
							}
						}
					}
				})
			}
		})
	}
}

// TestBarrierIsLogDepth holds the barrier to its shape: each rank sends
// ⌈log₂ N⌉ messages per barrier, and a warm barrier on one switch takes
// ⌈log₂ N⌉ times the two-rank barrier's time, within 1 %. A central
// coordinator fails both: rank 0 sends N − 1 messages, and the time grows
// linearly in N.
func TestBarrierIsLogDepth(t *testing.T) {
	for _, g := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		t.Run(g.String(), func(t *testing.T) {
			var pair sim.Time
			for _, n := range []int{2, 3, 4, 5, 8, 16, 32, 64} {
				warm := warmBarrier(t, g, n)
				if n == 2 {
					pair = warm
					t.Logf("2 ranks: %v per warm barrier", pair)
					continue
				}
				want := float64(barrierDepth(n)) * float64(pair)
				if d := math.Abs(float64(warm)-want) / want; d > 0.01 {
					t.Errorf("%d ranks: warm barrier %v, want %d × %v within 1 %% (off by %.1f %%)",
						n, warm, barrierDepth(n), pair, 100*d)
				}
			}
		})
	}
}

// warmBarrier runs three barriers on an n-rank world of generation g, checks
// that every rank sent ⌈log₂ n⌉ messages in each, and returns the third's
// time: from the last rank leaving the second to the last leaving the third.
func warmBarrier(t *testing.T, g xport.Gen, n int) sim.Time {
	t.Helper()
	k, comms := genWorld(g, n)
	var left [3]sim.Time
	for r, c := range comms {
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for b := range left {
				sent := c.Stats().Sent
				if err := c.Barrier(p); err != nil {
					t.Error(err)
					return
				}
				if d := c.Stats().Sent - sent; d != int64(barrierDepth(n)) {
					t.Errorf("%d ranks, barrier %d: rank %d sent %d messages, want ⌈log₂ %d⌉ = %d", n, b, r, d, n, barrierDepth(n))
				}
				left[b] = max(left[b], p.Now())
			}
		})
	}
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	if k.Live() > 0 {
		t.Fatalf("%d ranks hung at %v:\n%s", n, k.Now(), k.HangReport())
	}
	return left[2] - left[1]
}
