package netsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// faultyPair is a DirectPair with one fault rule on both of its links.
func faultyPair(t *testing.T, k *sim.Kernel, seed int64, rule FaultRule) *Network {
	t.Helper()
	net := NewDirectPair(k, myrinet())
	if err := net.ApplyFaults(FaultPlan{Seed: seed, Rules: []FaultRule{rule}}); err != nil {
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
	return fwd, rev, net.Iface(0).EgressStats(), net.Iface(1).EgressStats()
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
	st := net.Iface(0).EgressStats()
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
	st := net.Iface(0).EgressStats()
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

func TestFlapWindowsDeterministicAndDisjoint(t *testing.T) {
	a := flapWindows(42, "n0->sw", 10*sim.Microsecond, 2*sim.Microsecond, sim.Millisecond)
	b := flapWindows(42, "n0->sw", 10*sim.Microsecond, 2*sim.Microsecond, sim.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("flap schedule not deterministic for a fixed (seed, link)")
	}
	c := flapWindows(42, "n1->sw", 10*sim.Microsecond, 2*sim.Microsecond, sim.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two links share one flap schedule")
	}
	if len(a) == 0 {
		t.Fatal("no flap windows generated over 100 mean-up periods")
	}
	for i := range a {
		if a[i].until <= a[i].from {
			t.Fatalf("empty window %d: %+v", i, a[i])
		}
		if i > 0 && a[i].from < a[i-1].until {
			t.Fatalf("windows overlap: %+v then %+v", a[i-1], a[i])
		}
	}
}

func TestMergeWindows(t *testing.T) {
	got := mergeWindows([]downWindow{{50, 60}, {10, 20}, {15, 30}, {25, 40}})
	want := []downWindow{{10, 40}, {50, 60}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeWindows = %+v, want %+v", got, want)
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
		{Horizon: -1},
		// A flap every 2 ns up to 1 ms: half a million windows per link.
		{Horizon: sim.Millisecond, Rules: []FaultRule{{FlapMeanUp: 1, FlapMeanDown: 1}}},
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
	good := FaultPlan{Seed: 9, Horizon: sim.Millisecond, Rules: []FaultRule{
		{Links: "n*->*", DropProb: 0.01},
		{Links: "sw->n1", FlapMeanUp: 100 * sim.Microsecond, FlapMeanDown: 10 * sim.Microsecond},
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
