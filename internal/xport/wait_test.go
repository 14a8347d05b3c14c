package xport_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// HandlerSpace.Wait under co-residency. Service A idles in Wait on node 1
// while service B's own extractor, on the same node, pulls packets out of
// the shared ring at its own pace: B's extraction advances and completes A's
// messages (so A's condition can turn true without A extracting anything),
// moves the packet meter and the per-service byte counters the fair-share
// extractor snapshots, and leaves partial credit batches withheld, which the
// next idle poll on the node must flush — with B away computing, one of A's
// ticks. The sender runs its window dry, so the instant each of its sends
// returns depends on the tick each batch was flushed at. A's handler pulls
// its message in two pieces and finishes a while after the last, as a real
// layer's does (matching, completion cost), so A's condition also turns
// true between polls with the ring empty. Sizes (one to three packets),
// gaps and B's pacing are drawn per seed. The run must be the same
// simulation whether A waits in Wait or in its own Extract loop.

const (
	coMsgs   = 40
	coRecvID = 5
)

// atLeast is A's wait condition: n messages handled.
type atLeast struct {
	got, want int
}

func (c *atLeast) Done() bool { return c.got >= c.want }

// coStats counts how often a run put B's extractor in A's way.
type coStats struct{ pulled, withheld int }

func coResidentRun(t *testing.T, bc bindingCase, seed int64, budget int, wait bool, st *coStats) string {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Profile = bc.gen.Profile()
	cfg.Nodes = 2
	pl := cluster.New(k, cfg)
	eps := bc.attach(pl)
	a, b := xport.Spaces(eps, "a"), xport.Spaces(eps, "b")

	// Everything random is drawn here, so both variants get the same script.
	rng := rand.New(rand.NewSource(seed))
	mtu := a[0].MTU()
	maxPkts := 3
	if bc.gen == xport.GenFM1 {
		// FM 1.x reassembles one message per source and charges the staging
		// copy mid-append; two extractors interleaving on one multi-packet
		// message is outside what it supports.
		maxPkts = 1
	}
	type step struct {
		aSize, bSize int // bSize 0: no message for B this step
		gap          sim.Time
	}
	script := make([]step, coMsgs)
	for i := range script {
		script[i].aSize = 16 + rng.Intn(maxPkts*mtu-16)
		if rng.Intn(3) == 0 {
			script[i].bSize = 1 + rng.Intn(maxPkts*mtu)
		}
		if rng.Intn(4) == 0 {
			script[i].gap = sim.Time(2000 + rng.Intn(12000)) // let node 1 go quiet
		}
	}
	bGaps := make([]sim.Time, 64)
	for i := range bGaps {
		bGaps[i] = []sim.Time{130, 450, 2 * sim.Microsecond, 23 * sim.Microsecond}[rng.Intn(4)]
	}

	var log strings.Builder
	cond := &atLeast{want: coMsgs}
	a[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, 8)
		p.Delay(300 * sim.Nanosecond)
		s.ReceiveDiscard(p, s.Remaining())
		p.Delay(1200 * sim.Nanosecond)
		cond.got++
	})
	bGot := 0
	b[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		bGot++
	})

	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 3*mtu)
		for i, sc := range script {
			if err := xport.Send(p, a[0], 1, coRecvID, msg[:sc.aSize]); err != nil {
				t.Error(err)
			}
			fmt.Fprintf(&log, "sent %d at %v\n", i, p.Now())
			if sc.bSize > 0 {
				if err := xport.Send(p, b[0], 1, coRecvID, msg[:sc.bSize]); err != nil {
					t.Error(err)
				}
			}
			p.Delay(sc.gap)
		}
	})
	k.Spawn("a", func(p *sim.Proc) {
		if wait {
			a[1].Wait(p, budget, cond)
		} else {
			for !cond.Done() {
				a[1].Extract(p, budget)
			}
		}
		fmt.Fprintf(&log, "a done at %v\n", p.Now())
	})
	fc := eps[1].Transport().Core().FlowControl()
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; !cond.Done(); i++ {
			aBefore, bBefore := a[1].Stats().Bytes, bGot
			n := b[1].Extract(p, 0)
			if a[1].Stats().Bytes != aBefore {
				st.pulled++ // B's extractor moved A's message along
			}
			if n > 0 && fc.Dirty() {
				st.withheld++
			}
			fmt.Fprintf(&log, "b extracted %d at %v (a has %d, b %d->%d)\n", n, p.Now(), cond.got, bBefore, bGot)
			p.Delay(bGaps[i%len(bGaps)])
		}
	})
	// Pollers never deadlock, so a scenario that cannot finish would spin
	// forever: bound it, and require that everything did finish.
	if err := k.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	if k.Live() > 0 {
		t.Fatalf("seed %d: still running at %v: %s (a handled %d of %d)", seed, k.Now(), k.LiveNames(), cond.got, coMsgs)
	}
	fmt.Fprintf(&log, "events %d\n", k.Events())
	for n, ep := range eps {
		m := ep.Transport().Core().FlowControl()
		fmt.Fprintf(&log, "node %d: a %+v b %+v nic %+v pkts %d credits sent %d recvd %d avail %d\n",
			n, a[n].Stats(), b[n].Stats(), pl.NICs[n].Stats(), a[n].Packets(),
			m.CreditsSent, m.CreditsRecvd, m.Available(1-n))
	}
	return log.String()
}

func TestCoResidentWaitMatchesExtractLoop(t *testing.T) {
	for _, bc := range bindingCases {
		for _, budget := range []int{0, 1} { // unlimited drain; the one-packet fair-share path
			t.Run(fmt.Sprintf("%s/budget%d", bc.name, budget), func(t *testing.T) {
				var st coStats
				for seed := int64(1); seed <= 12; seed++ {
					loop := coResidentRun(t, bc, seed, budget, false, &coStats{})
					wait := coResidentRun(t, bc, seed, budget, true, &st)
					if loop != wait {
						t.Fatalf("seed %d: Wait is not the loop it replaces\n--- Extract loop\n%s--- Wait\n%s", seed, loop, wait)
					}
				}
				if st.pulled == 0 || st.withheld == 0 {
					t.Fatalf("scenario lost its point: B advanced A's messages %d times and withheld a credit batch %d times", st.pulled, st.withheld)
				}
			})
		}
	}
}

// A service that re-enters Wait has broken the single-threaded contract the
// wait's bookkeeping relies on; it is told so instead of waiting wrongly.
func TestWaitRejectsReentry(t *testing.T) {
	k := sim.NewKernel()
	sp := xport.Spaces(endpoints(platform(k, 2)), "svc")[0]
	never := &atLeast{want: 1}
	k.Spawn("first", func(p *sim.Proc) { sp.Wait(p, 0, never) })
	k.SpawnAt(sim.Microsecond, "second", func(p *sim.Proc) { sp.Wait(p, 0, never) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "entered Wait twice") {
		t.Fatalf("want the re-entry panic, got %v", err)
	}
}
