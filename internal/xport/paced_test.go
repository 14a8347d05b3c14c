package xport_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/sim"
	"repro/internal/xport"
)

// HandlerSpace.WaitPaced against the loop it stands for, written out here as
// a service would write it: Extract, the turn's work, Delay. Service A on
// node 1 is a small echo server. It runs a script of paced waits of every
// shape the callers have — a count of messages handled; the same with a
// give-up deadline drawn off the tick grid, so that it falls inside a pause or
// a poll; a clamped wait for an arrival instant, also off the grid — and every
// turn's work is flushing the replies its handler queued, each held back
// while the window toward node 0 is shut. Node 0 sends at its own pace and
// extracts rarely, so that window (cut to a few packets) shuts for many turns
// at a time and reopens in steps. Service B's extractor shares node 1, as in
// wait_test.go: it pulls A's packets out of the ring between A's turns and
// leaves partial credit batches withheld for A's next poll to flush. The run
// must be the same simulation — every send instant, every wait's outcome and
// end time, B's view at each of its polls, the event count, the counters and
// the credit ledger — whichever way A waits.

const (
	pacedMsgs    = 60
	pacedReplyID = 6
	pacedWindow  = 6
)

// echo is A's turn work: the reply queue and its flush.
type echo struct {
	sp      *xport.HandlerSpace
	fc      *flowctl.Manager
	msg     []byte
	q       []int // queued reply sizes
	sent    int
	blocked int // turns that found a reply queued and the window shut
}

func (e *echo) Pending() bool { return len(e.q) > 0 }

func (e *echo) Do(p *sim.Proc) {
	for len(e.q) > 0 {
		n := e.q[0]
		if e.fc.Available(0) < (n+e.sp.MTU()-1)/e.sp.MTU() {
			e.blocked++
			return
		}
		e.q = e.q[:copy(e.q, e.q[1:])]
		if err := xport.Send(p, e.sp, 0, pacedReplyID, e.msg[:n]); err != nil {
			panic(err)
		}
		e.sent++
	}
}

// echoed is A's condition: want messages handled and every reply to them out.
type echoed struct {
	handled, want int
	e             *echo
}

func (c *echoed) Done() bool { return c.handled >= c.want && len(c.e.q) == 0 }

// never is the condition of a wait only its deadline ends.
type never struct{}

func (never) Done() bool { return false }

// loopPaced is the reference: the paced wait as the loop a service writes.
func loopPaced(p *sim.Proc, sp *xport.HandlerSpace, budget int, until xport.Cond, pace xport.Pace) bool {
	for !until.Done() {
		if pace.Deadline > 0 && p.Now() >= pace.Deadline {
			return false
		}
		sp.Extract(p, budget)
		pace.Work.Do(p)
		d := pace.Gap
		if pace.Clamp {
			if p.Now() >= pace.Deadline {
				continue
			}
			if left := pace.Deadline - p.Now(); left < d {
				d = left
			}
		}
		p.Delay(d)
	}
	return true
}

// pacedStats counts what a run exercised.
type pacedStats struct {
	pulled, withheld int // B's extractor moved A's messages along; left a credit batch withheld
	blocked          int // A's turns with a reply held back by the shut window
	gaveUp           int // waits ended by a give-up deadline that fell inside a turn
	onTime           int // clamped waits that ended at their instant exactly
}

func pacedRun(t *testing.T, bc bindingCase, seed int64, budget int, fused bool, st *pacedStats) string {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Profile = bc.gen.Profile()
	cfg.Profile.CreditWindow = pacedWindow
	cfg.Nodes = 2
	pl := cluster.New(k, cfg)
	eps := bc.attach(pl)
	a, b := xport.Spaces(eps, "a"), xport.Spaces(eps, "b")

	// Everything random is drawn here, so both variants get the same script.
	rng := rand.New(rand.NewSource(seed))
	mtu := a[0].MTU()
	maxPkts := 3
	if bc.gen == xport.GenFM1 {
		maxPkts = 1 // see coResidentRun
	}
	type step struct {
		aSize, bSize int // bSize 0: no message for B this step
		extract      bool
		gap          sim.Time
	}
	script := make([]step, pacedMsgs)
	for i := range script {
		script[i].aSize = 16 + rng.Intn(maxPkts*mtu-16)
		if rng.Intn(3) == 0 {
			script[i].bSize = 1 + rng.Intn(maxPkts*mtu)
		}
		script[i].extract = rng.Intn(8) == 0
		if rng.Intn(4) == 0 {
			script[i].gap = sim.Time(2000 + rng.Intn(12000)) // let node 1 go quiet
		}
	}
	bGaps := make([]sim.Time, 64)
	for i := range bGaps {
		bGaps[i] = []sim.Time{130, 450, 2 * sim.Microsecond, 23 * sim.Microsecond}[rng.Intn(4)]
	}
	gap := []sim.Time{700 * sim.Nanosecond, sim.Microsecond, 5 * sim.Microsecond}[rng.Intn(3)]
	type wait struct {
		kind  int      // 0: count; 1: count with a give-up deadline; 2: clamped arrival
		more  int      // messages to wait for beyond those handled
		after sim.Time // deadline, from the wait's start
	}
	waits := make([]wait, 40)
	for i := range waits {
		waits[i] = wait{kind: rng.Intn(3), more: 1 + rng.Intn(4), after: sim.Time(300 + rng.Intn(9000))}
	}

	var log strings.Builder
	srv := &echo{sp: a[1], fc: eps[1].Transport().Core().FlowControl(), msg: make([]byte, maxPkts*mtu)}
	cond := &echoed{e: srv}
	a[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		n := s.Length()
		s.ReceiveDiscard(p, n)
		cond.handled++
		srv.q = append(srv.q, n)
	})
	replies := &atLeast{want: pacedMsgs}
	a[0].Register(pacedReplyID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		replies.got++
	})
	bGot := 0
	b[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		bGot++
	})

	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, maxPkts*mtu)
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
			if sc.extract {
				a[0].Extract(p, 0) // take replies in, hand credit back
			}
			p.Delay(sc.gap)
		}
		a[0].Wait(p, 0, replies)
		fmt.Fprintf(&log, "all replies in at %v\n", p.Now())
	})
	allDone := false
	k.Spawn("a", func(p *sim.Proc) {
		paced := func(until xport.Cond, pace xport.Pace) bool {
			pace.Gap, pace.Work = gap, srv
			if fused {
				return a[1].WaitPaced(p, budget, until, pace)
			}
			return loopPaced(p, a[1], budget, until, pace)
		}
		for i, w := range waits {
			cond.want = cond.handled + w.more
			if cond.want > pacedMsgs {
				cond.want = pacedMsgs
			}
			var met bool
			deadline := p.Now() + w.after
			switch w.kind {
			case 0:
				met = paced(cond, xport.Pace{})
			case 1:
				met = paced(cond, xport.Pace{Deadline: deadline})
				if !met && p.Now() > deadline {
					st.gaveUp++
				}
			case 2:
				met = paced(never{}, xport.Pace{Deadline: deadline, Clamp: true})
				if p.Now() == deadline {
					st.onTime++
				}
			}
			fmt.Fprintf(&log, "wait %d kind %d: %v at %v, %d handled, %d replies out\n", i, w.kind, met, p.Now(), cond.handled, srv.sent)
		}
		cond.want = pacedMsgs
		paced(cond, xport.Pace{})
		fmt.Fprintf(&log, "a done at %v\n", p.Now())
		allDone = true
	})
	fc := srv.fc
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; !allDone; i++ {
			aBefore, bBefore := a[1].Stats().Bytes, bGot
			n := b[1].Extract(p, 0)
			if a[1].Stats().Bytes != aBefore {
				st.pulled++
			}
			if n > 0 && fc.Dirty() {
				st.withheld++
			}
			fmt.Fprintf(&log, "b extracted %d at %v (a has %d, b %d->%d)\n", n, p.Now(), cond.handled, bBefore, bGot)
			p.Delay(bGaps[i%len(bGaps)])
		}
	})
	// Pollers never deadlock, so a scenario that cannot finish would spin
	// forever: bound it, and require that everything did finish.
	if err := k.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	if k.Live() > 0 {
		t.Fatalf("seed %d: still running at %v: %s (a handled %d of %d, %d replies out, %d in)",
			seed, k.Now(), k.LiveNames(), cond.handled, pacedMsgs, srv.sent, replies.got)
	}
	st.blocked += srv.blocked
	fmt.Fprintf(&log, "events %d, blocked turns %d\n", k.Events(), srv.blocked)
	for n, ep := range eps {
		m := ep.Transport().Core().FlowControl()
		fmt.Fprintf(&log, "node %d: a %+v b %+v core %+v nic %+v pkts %d credits sent %d recvd %d avail %d\n",
			n, a[n].Stats(), b[n].Stats(), ep.Transport().Core().Stats(), pl.NICs[n].Stats(), a[n].Packets(),
			m.CreditsSent, m.CreditsRecvd, m.Available(1-n))
	}
	return log.String()
}

func TestWaitPacedMatchesPacedLoop(t *testing.T) {
	for _, bc := range bindingCases {
		for _, budget := range []int{0, 1} { // unlimited drain, as every caller asks; the one-packet fair-share path
			t.Run(fmt.Sprintf("%s/budget%d", bc.name, budget), func(t *testing.T) {
				var st pacedStats
				for seed := int64(1); seed <= 12; seed++ {
					var ref pacedStats
					loop := pacedRun(t, bc, seed, budget, false, &ref)
					wait := pacedRun(t, bc, seed, budget, true, &st)
					if loop != wait {
						t.Fatalf("seed %d: WaitPaced is not the loop it replaces\n%s", seed, firstDiff(loop, wait))
					}
				}
				t.Logf("%+v", st)
				if st.pulled == 0 || st.withheld == 0 || st.blocked < 20 || st.gaveUp == 0 || st.onTime == 0 {
					t.Fatalf("scenario lost its point: %+v", st)
				}
			})
		}
	}
}

// firstDiff shows where two run logs part.
func firstDiff(loop, wait string) string {
	a, b := strings.Split(loop, "\n"), strings.Split(wait, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			from := i - 3
			if from < 0 {
				from = 0
			}
			return fmt.Sprintf("line %d, after\n  %s\n--- paced loop\n  %s\n--- WaitPaced\n  %s",
				i, strings.Join(a[from:i], "\n  "), a[i], b[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other (%d and %d lines)", len(a), len(b))
}

// A paced wait must pause.
func TestWaitPacedRejectsZeroGap(t *testing.T) {
	k := sim.NewKernel()
	sp := xport.Spaces(endpoints(platform(k, 2)), "svc")[0]
	k.Spawn("w", func(p *sim.Proc) { sp.WaitPaced(p, 0, never{}, xport.Pace{Deadline: sim.Microsecond}) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "positive gap") {
		t.Fatalf("want the zero-gap panic, got %v", err)
	}
}
