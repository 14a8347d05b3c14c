package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// faultyPair is a DirectPair under a plan of the given rules.
func faultyPair(t *testing.T, k *sim.Kernel, seed int64, rules ...FaultRule) *Network {
	t.Helper()
	net := NewDirectPair(k, myrinet())
	if err := net.ApplyFaults(FaultPlan{Seed: seed, Rules: rules}); err != nil {
		t.Fatal(err)
	}
	return net
}

// dropPattern runs one DirectPair with per-packet loss on both directions and
// returns which sequence numbers survived on each, plus final egress stats.
func dropPattern(t *testing.T) (fwd, rev []int, st0, st1 LinkStats) {
	t.Helper()
	k := sim.NewKernel()
	net := faultyPair(t, k, 5, FaultRule{DropProb: 0.3})
	const total = 300
	for dir := 0; dir < 2; dir++ {
		src, dst := dir, 1-dir
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < total; i++ {
				net.Iface(src).Send(p, &Packet{Dst: dst, Payload: []byte{byte(i), byte(i >> 8)}})
			}
		})
		got := &fwd
		if dir == 1 {
			got = &rev
		}
		k.SpawnDaemon("receiver", func(p *sim.Proc) {
			for {
				pkt := net.Iface(dst).In.Recv(p)
				*got = append(*got, int(pkt.Payload[0])|int(pkt.Payload[1])<<8)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return fwd, rev, net.Iface(0).egressStats(), net.Iface(1).egressStats()
}

// The ISSUE-6 pin: two links under one fault rule must draw uncorrelated
// fault schedules (seed XOR hash(link name)), while the whole run stays
// deterministic across repetitions.
func TestPerLinkFaultStreamsDecorrelated(t *testing.T) {
	fwd1, rev1, a1, b1 := dropPattern(t)
	if a1.Dropped == 0 || b1.Dropped == 0 {
		t.Fatalf("expected drops on both directions, got %d / %d", a1.Dropped, b1.Dropped)
	}
	if reflect.DeepEqual(fwd1, rev1) {
		t.Fatal("links 0->1 and 1->0 share one fault rule but replayed identical drop schedules")
	}
	fwd2, rev2, a2, b2 := dropPattern(t)
	if !reflect.DeepEqual(fwd1, fwd2) || !reflect.DeepEqual(rev1, rev2) {
		t.Fatal("same seed, different survivor sets across runs: fault injection is not deterministic")
	}
	if a1 != a2 || b1 != b2 {
		t.Fatalf("link stats diverged across identical runs: %+v vs %+v / %+v vs %+v", a1, a2, b1, b2)
	}
}

func TestCorruptionMarksFrame(t *testing.T) {
	k := sim.NewKernel()
	net := faultyPair(t, k, 7, FaultRule{CorruptProb: 1.0})
	var got *Packet
	k.Spawn("sender", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte("abcd")})
	})
	k.Spawn("receiver", func(p *sim.Proc) { got = net.Iface(1).In.Recv(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got.Corrupt {
		t.Fatal("corrupted frame not marked Corrupt: the NIC CRC check cannot see it")
	}
}

func TestOutageWindowDropsAndRegisters(t *testing.T) {
	k := sim.NewKernel()
	net := NewDirectPair(k, myrinet())
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Links: "0->1", DownFrom: 10 * sim.Microsecond, DownUntil: 20 * sim.Microsecond},
	}}
	if err := net.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	var got []sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte{byte(i)}})
			p.Delay(sim.Microsecond)
		}
	})
	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			net.Iface(1).In.Recv(p)
			got = append(got, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Iface(0).egressStats()
	if st.DownDropped == 0 {
		t.Fatal("no frames dropped inside the outage window")
	}
	if int(st.Packets)-len(got) != int(st.DownDropped) {
		t.Fatalf("sent %d, delivered %d, down-dropped %d: frames unaccounted for", st.Packets, len(got), st.DownDropped)
	}
	lost := net.LostFrames()
	if len(lost) != 1 || lost[0].Cause != "link-down" || lost[0].Count != st.DownDropped {
		t.Fatalf("loss registry %+v does not match DownDropped %d", lost, st.DownDropped)
	}
	if net.LeakedCredits(-1, -1) != st.DownDropped {
		t.Fatalf("leaked credits %d, want %d", net.LeakedCredits(-1, -1), st.DownDropped)
	}
}

func TestSwitchDeathNeverHeals(t *testing.T) {
	k := sim.NewKernel()
	net := NewDirectPair(k, myrinet())
	// DownUntil == 0 with DownFrom > 0: the link dies and stays dead.
	plan := FaultPlan{Rules: []FaultRule{{Links: "0->1", DownFrom: 5 * sim.Microsecond}}}
	if err := net.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	var got int
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte{1}})
			p.Delay(sim.Microsecond)
		}
	})
	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			net.Iface(1).In.Recv(p)
			got++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Iface(0).egressStats()
	if st.DownDropped == 0 || got == 0 {
		t.Fatalf("want some deliveries then permanent death; got %d delivered, %d dropped", got, st.DownDropped)
	}
	if int64(got)+st.DownDropped != st.Packets {
		t.Fatalf("frames unaccounted for: %d + %d != %d", got, st.DownDropped, st.Packets)
	}
}

func TestSlowFactorStretchesLink(t *testing.T) {
	k := sim.NewKernel()
	cfg := LinkConfig{BandwidthMBps: 100, PropDelay: sim.Microsecond, Slots: 4}
	net := NewDirectPair(k, cfg)
	if err := net.ApplyFaults(FaultPlan{Rules: []FaultRule{{Links: "0->1", SlowFactor: 3}}}); err != nil {
		t.Fatal(err)
	}
	var arrive sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 1, Payload: make([]byte, 1000)})
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		net.Iface(1).In.Recv(p)
		arrive = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Clean link: 10us serialization + 1us propagation. Straggler at 3x: 33us.
	if arrive != 33*sim.Microsecond {
		t.Fatalf("arrival at %v, want 33us under SlowFactor=3", arrive)
	}
}

// window is one outage window [from, until) in a test's reference schedule.
type window struct{ from, until sim.Time }

// eagerFlapWindows is the flap schedule as ApplyFaults once precomputed it
// ahead of the run: the same loop over a flap's stream, cut at n windows
// instead of at a horizon. The lazily drawn windows must equal it.
func eagerFlapWindows(seed int64, stream string, up, down sim.Time, n int) []window {
	rng := rand.New(rand.NewSource(linkSeed(seed, stream)))
	var wins []window
	t := sim.Time(rng.ExpFloat64() * float64(up))
	for len(wins) < n {
		d := sim.Time(rng.ExpFloat64() * float64(down))
		if d < 1 {
			d = 1
		}
		wins = append(wins, window{from: t, until: t + d})
		t += d + sim.Time(rng.ExpFloat64()*float64(up))
	}
	return wins
}

// lazyFlapWindows is the first n windows a flap source draws from stream.
func lazyFlapWindows(seed int64, stream string, up, down sim.Time, n int) []window {
	o := newFlap(seed, stream, up, down)
	wins := make([]window, n)
	for i := range wins {
		wins[i] = window{o.from, o.until}
		o.next()
	}
	return wins
}

// A flap drawn as its link's frames reach it is the schedule that was once
// precomputed: the same windows, in the same up-then-down order, from the
// same per-link stream, and two links still draw different schedules.
func TestLazyFlapMatchesEagerSchedule(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		seed     int64
		link     string
		up, down sim.Time
	}{
		{42, "n0->sw", 10 * sim.Microsecond, 2 * sim.Microsecond},
		{1998, "edge0->spine1", 400 * sim.Microsecond, 300 * sim.Microsecond},
		{-7, "sw3->sw4", sim.Millisecond, 700 * sim.Microsecond},
		{1, "0->1", 999, 1}, // most down draws are under 1 ns and clamp to it
	} {
		got := lazyFlapWindows(tc.seed, flapStream(tc.link, 0), tc.up, tc.down, n)
		if want := eagerFlapWindows(tc.seed, flapStream(tc.link, 0), tc.up, tc.down, n); !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: window %d is %+v, the precomputed schedule has %+v", tc.seed, tc.link, i, got[i], want[i])
				}
			}
		}
		for i, w := range got {
			if w.until <= w.from || i > 0 && w.from < got[i-1].until {
				t.Fatalf("seed %d %s: window %d %+v is empty or overlaps the one before", tc.seed, tc.link, i, w)
			}
		}
	}
	a := lazyFlapWindows(42, flapStream("n0->sw", 0), 10*sim.Microsecond, 2*sim.Microsecond, 100)
	if b := lazyFlapWindows(42, flapStream("n1->sw", 0), 10*sim.Microsecond, 2*sim.Microsecond, 100); reflect.DeepEqual(a, b) {
		t.Fatal("two links share one flap schedule")
	}
}

// Each flap on a link draws from its own stream: two identical flap rules
// on one link give two different schedules, not one schedule twice.
func TestFlapsOnOneLinkDrawTheirOwnWindows(t *testing.T) {
	rule := FaultRule{Links: "0->1", FlapMeanUp: 20 * sim.Microsecond, FlapMeanDown: 10 * sim.Microsecond}
	f := faultyPair(t, sim.NewKernel(), 11, rule, rule).Iface(0).out.faults
	if len(f.down) != 2 {
		t.Fatalf("two flap rules on one link made %d outage sources, want 2", len(f.down))
	}
	a, b := &f.down[0], &f.down[1]
	for i := 0; i < 100; i++ {
		if a.from != b.from || a.until != b.until {
			return
		}
		a.next()
		b.next()
	}
	t.Fatal("two identical flap rules on one link drew the same 100 windows")
}

// Two outage sources on one link, a fixed window and a flap or two flaps,
// overlap freely: the link loses a frame exactly when some source is down,
// probed at every window edge and on a fine grid between them.
func TestOverlappingOutageSources(t *testing.T) {
	const (
		seed  = 11
		link  = "0->1"
		until = 2 * sim.Millisecond
	)
	up, down := 20*sim.Microsecond, 10*sim.Microsecond
	flap := func(up, down sim.Time) FaultRule { return FaultRule{Links: link, FlapMeanUp: up, FlapMeanDown: down} }
	for _, tc := range []struct {
		name  string
		rules []FaultRule
	}{
		{"fixed+flap", []FaultRule{{Links: link, DownFrom: 300 * sim.Microsecond, DownUntil: 500 * sim.Microsecond}, flap(up, down)}},
		{"flap+flap", []FaultRule{flap(up, down), flap(3*up, down/2)}},
	} {
		var ref []window
		flaps := 0
		for _, r := range tc.rules {
			if r.FlapMeanUp > 0 {
				ref = append(ref, eagerFlapWindows(seed, flapStream(link, flaps), r.FlapMeanUp, r.FlapMeanDown, 1000)...)
				flaps++
			} else {
				ref = append(ref, window{r.DownFrom, r.DownUntil})
			}
		}
		var times []sim.Time
		for at := sim.Time(0); at < until; at += 250 {
			times = append(times, at)
		}
		for _, w := range ref {
			for _, at := range []sim.Time{w.from - 1, w.from, w.until - 1, w.until} {
				if at >= 0 && at < until {
					times = append(times, at)
				}
			}
		}
		slices.Sort(times)
		times = slices.Compact(times)

		// Probe the 0->1 link's loss decision directly, in rising time.
		l := faultyPair(t, sim.NewKernel(), seed, tc.rules...).Iface(0).out
		var want int64
		for _, at := range times {
			down := false
			for _, w := range ref {
				down = down || w.from <= at && at < w.until
			}
			if delivered := l.applyFaults(&Packet{Src: 0, Dst: 1}, at); delivered == down {
				t.Fatalf("%s: a frame at %v delivered=%v, but some source down=%v", tc.name, at, delivered, down)
			}
			if down {
				want++
			}
		}
		if want == 0 || want == int64(len(times)) {
			t.Fatalf("%s: the link was down at %d of %d probes; want both up and down", tc.name, want, len(times))
		}
		if got := l.Stats().DownDropped; got != want {
			t.Fatalf("%s: DownDropped %d, want %d", tc.name, got, want)
		}
	}
}

// flapRun sends one frame every step over each stretch [from, to) on a pair
// whose 0->1 link carries rule, and returns per stretch how many frames were
// sent and the sequence numbers (from 0 in each stretch) that were delivered.
func flapRun(t *testing.T, seed int64, rule FaultRule, step sim.Time, stretches ...[2]sim.Time) (sent []int, got [][]int) {
	t.Helper()
	k := sim.NewKernel()
	rule.Links = "0->1"
	net := faultyPair(t, k, seed, rule)
	sent, got = make([]int, len(stretches)), make([][]int, len(stretches))
	k.Spawn("sender", func(p *sim.Proc) {
		for i, s := range stretches {
			if d := s[0] - p.Now(); d > 0 {
				p.Delay(d)
			}
			for ; p.Now() < s[1]; sent[i]++ {
				net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte{byte(i), byte(sent[i]), byte(sent[i] >> 8)}})
				p.Delay(step)
			}
		}
	})
	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			b := net.Iface(1).In.Recv(p).Payload
			got[b[0]] = append(got[b[0]], int(b[1])|int(b[2])<<8)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return sent, got
}

// A flap lasts as long as the run: with no horizon to set, a pair flapping
// at 50 µs up and 50 µs down loses frames a second in as it did at the start.
func TestFlapsHaveNoHorizon(t *testing.T) {
	early, late := [2]sim.Time{0, 20 * sim.Millisecond}, [2]sim.Time{sim.Second, sim.Second + 20*sim.Millisecond}
	sent, got := flapRun(t, 1, FaultRule{FlapMeanUp: 50 * sim.Microsecond, FlapMeanDown: 50 * sim.Microsecond}, sim.Microsecond, early, late)
	for i, s := range [][2]sim.Time{early, late} {
		// Down half the time on average, over some 200 cycles.
		if lost := sent[i] - len(got[i]); lost < sent[i]/4 || lost > 3*sent[i]/4 {
			t.Errorf("frames in [%v, %v): %d sent, %d lost; a link down half the time loses about half", s[0], s[1], sent[i], lost)
		}
	}
}

// An interval draw past the end of int64 time saturates. A down draw of mean
// 9e18 ns is an outage that never heals, not one that wraps negative and
// clamps to 1 ns; an up draw near math.MaxInt64 keeps the link up, and no
// window wraps into negative time or back into the run.
func TestFlapDrawsSaturate(t *testing.T) {
	// Probe the 0->1 link's loss decision directly, in rising time.
	lost := func(l *Link, at sim.Time) bool { return !l.applyFaults(&Packet{Src: 0, Dst: 1}, at) }
	for seed := int64(1); seed <= 12; seed++ {
		up := 10 * sim.Microsecond
		l := faultyPair(t, sim.NewKernel(), seed, FaultRule{Links: "0->1", FlapMeanUp: up, FlapMeanDown: 9e18}).Iface(0).out
		// The first outage opens after the stream's first (up) draw.
		t0 := sim.Time(rand.New(rand.NewSource(linkSeed(seed, flapStream("0->1", 0)))).ExpFloat64() * float64(up))
		if t0 > 0 && lost(l, t0-1) {
			t.Fatalf("seed %d: a frame lost at %v, before the first outage opens at %v", seed, t0-1, t0)
		}
		for _, at := range []sim.Time{t0, t0 + 1, t0 + sim.Microsecond, sim.Second, 1e15, 1e18} {
			if !lost(l, at) {
				t.Fatalf("seed %d: a frame delivered at %v, after an outage of mean 9e18 ns opened at %v", seed, at, t0)
			}
		}

		rule := FaultRule{Links: "0->1", FlapMeanUp: math.MaxInt64 - 1, FlapMeanDown: sim.Millisecond}
		l = faultyPair(t, sim.NewKernel(), seed, rule).Iface(0).out
		for at := sim.Time(0); at < 10*sim.Millisecond; at += sim.Microsecond {
			if lost(l, at) {
				t.Fatalf("seed %d: a frame lost at %v under a mean up interval of %d ns", seed, at, rule.FlapMeanUp)
			}
		}
		prev := sim.Time(0)
		for i, w := range lazyFlapWindows(seed, flapStream("0->1", 0), rule.FlapMeanUp, rule.FlapMeanDown, 4) {
			if w.from < prev || w.until < w.from {
				t.Fatalf("seed %d: window %d %+v runs back from %v", seed, i, w, prev)
			}
			prev = w.until
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Rules: []FaultRule{{DropProb: 1.5}}},
		{Rules: []FaultRule{{CorruptProb: -0.1}}},
		{Rules: []FaultRule{{Links: "[unclosed"}}},
		{Rules: []FaultRule{{FlapMeanUp: sim.Microsecond}}}, // missing FlapMeanDown
		{Rules: []FaultRule{{DownFrom: 20, DownUntil: 10}}},
		{Rules: []FaultRule{{SlowFactor: 0.5}}},
		// Flaps whose mean cycle is under MinFlapCycle.
		{Rules: []FaultRule{{FlapMeanUp: 1, FlapMeanDown: 1}}},
		{Rules: []FaultRule{{FlapMeanUp: 500, FlapMeanDown: 499}}},
		// A link 1e18 times slow wrapped a frame's delay negative mid-run.
		{Rules: []FaultRule{{SlowFactor: 1e18}}},
		{Rules: []FaultRule{{SlowFactor: math.Inf(1)}}},
		{Rules: []FaultRule{{SlowFactor: math.NaN()}}},
		// A NaN probability was accepted and silently injected nothing.
		{Rules: []FaultRule{{DropProb: math.NaN()}}},
		{Rules: []FaultRule{{CorruptProb: math.NaN()}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but should not: %+v", i, p)
		}
	}
	good := FaultPlan{Seed: 9, Rules: []FaultRule{
		{Links: "n*->*", DropProb: 0.01},
		{Links: "sw->n1", FlapMeanUp: 100 * sim.Microsecond, FlapMeanDown: 10 * sim.Microsecond},
		{Links: "sw->n2", FlapMeanUp: 999, FlapMeanDown: 1}, // a mean cycle of MinFlapCycle
		{Links: "sw->n3", FlapMeanUp: math.MaxInt64, FlapMeanDown: math.MaxInt64},
		{Links: "0->1", DownFrom: sim.Microsecond, SlowFactor: 2},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestApplyFaultsGlobTargeting(t *testing.T) {
	k := sim.NewKernel()
	net := Shape{Topology: SingleSwitch, Nodes: 4}.Build(k, myrinet(), 0)
	plan := FaultPlan{Seed: 3, Rules: []FaultRule{{Links: "n*->sw", DropProb: 0.5}}}
	if err := net.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	for _, l := range net.Links() {
		injecting := l.Name()[0] == 'n'
		if injecting && (l.faults == nil || l.faults.drop != 0.5) {
			t.Fatalf("host link %s missed by glob", l.Name())
		}
		if !injecting && l.faults != nil {
			t.Fatalf("switch link %s matched by host glob", l.Name())
		}
	}
}
