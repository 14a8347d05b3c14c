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

// HandlerSpace.Wait and WaitPaced against the loops they stand for, written
// out as a service writes them: Extract until done; Extract, turn work, Delay.
// Service A on node 1 is an echo server. Its handler pulls each message in
// two pieces and finishes a while after the last (matching, completion cost),
// so A's condition turns true between polls with the ring empty, then queues
// a reply. A waits in four ways: Wait for a count; WaitPaced for a count with
// the replies out; the same with a give-up deadline off the tick grid; a
// clamped wait for an arrival instant. Each paced turn flushes the replies the
// window toward node 0 lets out. Node 0 sends one- to three-packet messages
// and extracts rarely. Service B's extractor shares node 1: it advances and
// completes A's messages between A's turns, moves the meters the fair-share
// extractor snapshots, and leaves credit batches withheld for A's next poll to
// flush. Whichever way A waits, the run must be the same simulation. The two
// tests are its two rows: the profile's credit window, and one of 6 packets.

const (
	coMsgs    = 60
	coRecvID  = 5
	coReplyID = 6
)

// echo is A: its handler's count, the replies the handler queued and the turn
// work that flushes them. As a Cond it is a paced wait's: want messages
// handled and every reply to them out.
type echo struct {
	sp            *xport.HandlerSpace
	fc            *flowctl.Manager
	msg           []byte
	handled, want int
	q             []int // queued reply sizes
	sent          int
	blocked       int // turns that found a reply queued and the window shut
}

func (e *echo) Done() bool    { return e.handled >= e.want && len(e.q) == 0 }
func (e *echo) Pending() bool { return len(e.q) > 0 }

func (e *echo) Do(p *sim.Proc) {
	for len(e.q) > 0 {
		n := e.q[0]
		if e.fc.Available(0) < (n+e.sp.Core().MTU()-1)/e.sp.Core().MTU() {
			e.blocked++
			return
		}
		e.q = e.q[:copy(e.q, e.q[1:])]
		if err := xport.SendGather(p, e.sp, 0, coReplyID, e.msg[:n]); err != nil {
			panic(err)
		}
		e.sent++
	}
}

// handled is a Wait's condition: want messages handled, replies or not.
type handled echo

func (c *handled) Done() bool { return c.handled >= c.want }

// atLeast is node 0's condition: want replies in.
type atLeast struct{ got, want int }

func (c *atLeast) Done() bool { return c.got >= c.want }

// never is the condition of a wait only its deadline ends.
type never struct{}

func (never) Done() bool { return false }

// loopWait is the reference for both waits: the loop a service writes.
func loopWait(p *sim.Proc, sp *xport.HandlerSpace, budget int, until xport.Cond, pace xport.Pace) bool {
	for !until.Done() {
		if pace.Deadline > 0 && p.Now() >= pace.Deadline {
			return false
		}
		sp.Extract(p, budget)
		if pace.Gap == 0 {
			continue
		}
		pace.Work.Do(p)
		d := pace.Gap
		if pace.Clamp {
			if p.Now() >= pace.Deadline {
				continue
			}
			d = min(d, pace.Deadline-p.Now())
		}
		p.Delay(d)
	}
	return true
}

// coStats counts what a run exercised.
type coStats struct {
	pulled, withheld int // B's extractor moved A's messages along; left a credit batch withheld
	blocked          int // A's turns with a reply held back by the shut window
	gaveUp           int // waits ended by a give-up deadline that fell inside a turn
	onTime           int // clamped waits that ended at their instant exactly
}

func coResidentRun(t *testing.T, bc bindingCase, seed int64, budget, window int, fused bool, st *coStats) string {
	m := bc.gen.Machine()
	if window > 0 {
		m.Profile.CreditWindow = window
	}
	k := sim.NewKernel()
	pl := cluster.New(k, m.Config(2, cluster.SingleSwitch))
	eps := xport.AttachEndpoints(pl, m)
	a, b := xport.Spaces(eps, "a"), xport.Spaces(eps, "b")

	// Everything random is drawn here, so both variants get the same script.
	rng := rand.New(rand.NewSource(seed))
	mtu := a[0].Core().MTU()
	type step struct {
		aSize, bSize int // bSize 0: no message for B this step
		extract      bool
		gap          sim.Time
	}
	script := make([]step, coMsgs)
	for i := range script {
		script[i].aSize = 16 + rng.Intn(3*mtu-16)
		if rng.Intn(3) == 0 {
			script[i].bSize = 1 + rng.Intn(3*mtu)
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
		kind  int      // 0: Wait for a count; 1: paced count; 2: paced count with a give-up deadline; 3: clamped arrival
		more  int      // messages to wait for beyond those handled
		after sim.Time // deadline, from the wait's start
	}
	waits := make([]wait, 40)
	for i := range waits {
		waits[i] = wait{kind: rng.Intn(4), more: 1 + rng.Intn(4), after: sim.Time(300 + rng.Intn(9000))}
	}

	var log strings.Builder
	srv := &echo{sp: a[1], fc: eps[1].Transport().Core().FlowControl(), msg: make([]byte, 3*mtu)}
	a[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		n := s.Length()
		s.ReceiveDiscard(p, 8)
		p.Delay(300 * sim.Nanosecond)
		s.ReceiveDiscard(p, s.Remaining())
		p.Delay(1200 * sim.Nanosecond)
		srv.handled++
		srv.q = append(srv.q, n)
	})
	replies := &atLeast{want: coMsgs}
	a[0].Register(coReplyID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		replies.got++
	})
	bGot := 0
	b[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		bGot++
	})

	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 3*mtu)
		for i, sc := range script {
			if err := xport.SendGather(p, a[0], 1, coRecvID, msg[:sc.aSize]); err != nil {
				t.Error(err)
			}
			fmt.Fprintf(&log, "sent %d at %v\n", i, p.Now())
			if sc.bSize > 0 {
				if err := xport.SendGather(p, b[0], 1, coRecvID, msg[:sc.bSize]); err != nil {
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
		wait := func(until xport.Cond, pace xport.Pace) bool {
			if pace.Gap > 0 {
				pace.Work = srv
			}
			switch {
			case !fused:
				return loopWait(p, a[1], budget, until, pace)
			case pace.Gap == 0:
				a[1].Wait(p, budget, until)
				return true
			}
			return a[1].WaitPaced(p, budget, until, pace)
		}
		for i, w := range waits {
			srv.want = min(srv.handled+w.more, coMsgs)
			deadline := p.Now() + w.after
			met := wait([]xport.Cond{(*handled)(srv), srv, srv, never{}}[w.kind],
				[]xport.Pace{{}, {Gap: gap}, {Gap: gap, Deadline: deadline}, {Gap: gap, Deadline: deadline, Clamp: true}}[w.kind])
			if w.kind == 2 && !met && p.Now() > deadline {
				st.gaveUp++
			}
			if w.kind == 3 && p.Now() == deadline {
				st.onTime++
			}
			fmt.Fprintf(&log, "wait %d kind %d: %v at %v, %d handled, %d replies out\n", i, w.kind, met, p.Now(), srv.handled, srv.sent)
		}
		srv.want = coMsgs
		wait(srv, xport.Pace{Gap: gap})
		fmt.Fprintf(&log, "a done at %v\n", p.Now())
		allDone = true
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; !allDone; i++ {
			aBefore, bBefore := a[1].Stats().Bytes, bGot
			n := b[1].Extract(p, 0)
			if a[1].Stats().Bytes != aBefore {
				st.pulled++
			}
			if n > 0 && srv.fc.Dirty() {
				st.withheld++
			}
			fmt.Fprintf(&log, "b extracted %d at %v (a has %d, b %d->%d)\n", n, p.Now(), srv.handled, bBefore, bGot)
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
		t.Fatalf("seed %d: still running at %v:\n%v\n(a handled %d of %d, %d replies out, %d in)",
			seed, k.Now(), k.HangReport(), srv.handled, coMsgs, srv.sent, replies.got)
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

// coResidentMatrix runs {fm1, fm2} × budget {0, 1} × 12 seeds at one credit
// window (0: the profile's), each seed both ways, and requires that B got in
// A's way and that every wait kind met its edge case.
func coResidentMatrix(t *testing.T, window int) {
	for _, bc := range bindingCases {
		for _, budget := range []int{0, 1} { // unlimited drain, as every caller asks; the one-packet fair-share path
			t.Run(fmt.Sprintf("%s/budget%d", bc.name, budget), func(t *testing.T) {
				var st coStats
				for seed := int64(1); seed <= 12; seed++ {
					loop := coResidentRun(t, bc, seed, budget, window, false, &coStats{})
					wait := coResidentRun(t, bc, seed, budget, window, true, &st)
					if loop != wait { // both end in a newline: they part before either ends
						a, b, i := strings.Split(loop, "\n"), strings.Split(wait, "\n"), 0
						for a[i] == b[i] {
							i++
						}
						t.Fatalf("seed %d: the waits part from their loops at line %d\n  loop: %s\n  wait: %s", seed, i, a[i], b[i])
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

func TestCoResidentWaitMatchesExtractLoop(t *testing.T) { coResidentMatrix(t, 0) }

func TestWaitPacedMatchesPacedLoop(t *testing.T) { coResidentMatrix(t, 6) }

// A paced wait must pause.
func TestWaitPacedRejectsZeroGap(t *testing.T) {
	k := sim.NewKernel()
	sp := xport.Spaces(endpoints(platform(k, 2)), "svc")[0]
	k.Spawn("w", func(p *sim.Proc) { sp.WaitPaced(p, 0, never{}, xport.Pace{Deadline: sim.Microsecond}) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "positive gap") {
		t.Fatalf("want the zero-gap panic, got %v", err)
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
