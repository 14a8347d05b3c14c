package svcload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// machine is the cluster a test fleet runs on.
type machine struct {
	gen     xport.Gen // zero: FM 2.x
	nodes   int
	fatTree bool
}

// buildFleet assembles the machine the way every assembler does — the
// generation's Machine at m's size and fabric, cluster.Assemble, one shared
// endpoint per node — and attaches a default-cost fleet, handing back the platform and
// the handler spaces for inspection.
func buildFleet(t *testing.T, m machine) (*cluster.Platform, []*xport.HandlerSpace, *Fleet) {
	t.Helper()
	if m.gen == 0 {
		m.gen = xport.GenFM2
	}
	topo := cluster.SingleSwitch
	if m.fatTree {
		topo = cluster.FatTree
	}
	mach := m.gen.Machine()
	pl, err := cluster.Assemble(mach.Config(m.nodes, topo))
	if err != nil {
		t.Fatal(err)
	}
	spaces := xport.Spaces(xport.AttachEndpoints(pl, mach), Service)
	return pl, spaces, Attach(spaces, ServiceConfig{})
}

// runFleet runs a planned fleet to completion — one RunNode Proc per node —
// and returns its error-free result.
func runFleet(t *testing.T, pl *cluster.Platform, f *Fleet) Result {
	t.Helper()
	for node := 0; node < f.Nodes(); node++ {
		pl.K.Spawn(fmt.Sprintf("svc.%d", node), func(p *sim.Proc) { f.RunNode(p, node) })
	}
	if err := pl.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	res := f.Result()
	if len(res.Errors) > 0 {
		t.Fatalf("run reported errors: %v", res.Errors)
	}
	return res
}

// mustRun plans wl on a fresh fleet of m and runs it.
func mustRun(t *testing.T, m machine, wl Workload) Result {
	t.Helper()
	pl, _, f := buildFleet(t, m)
	if err := f.Plan(wl); err != nil {
		t.Fatalf("plan: %v", err)
	}
	return runFleet(t, pl, f)
}

func openWorkload(seed int64) Workload {
	return Workload{
		Mode:      ModeOpen,
		Requests:  40,
		RateRPS:   50_000,
		Fanout:    2,
		Keyspace:  64,
		ZipfS:     1.1,
		ReqBytes:  64,
		RespBytes: 256,
		Seed:      seed,
	}
}

func TestOpenLoopCompletesAndReports(t *testing.T) {
	res := mustRun(t, machine{nodes: 8, fatTree: true}, openWorkload(1998))
	want := int64(8 * 40)
	if res.Planned != want || res.Issued != want || res.Completed != want {
		t.Fatalf("planned/issued/completed = %d/%d/%d, want all %d",
			res.Planned, res.Issued, res.Completed, want)
	}
	if res.SubRequests != 2*want || res.Served != 2*want {
		t.Fatalf("sub-requests/served = %d/%d, want both %d", res.SubRequests, res.Served, 2*want)
	}
	if res.P50NS <= 0 || res.P99NS < res.P50NS || res.P999NS < res.P99NS || res.MaxNS < res.P999NS {
		t.Fatalf("quantiles not ordered: p50 %d p99 %d p999 %d max %d",
			res.P50NS, res.P99NS, res.P999NS, res.MaxNS)
	}
	if res.GoodputRPS <= 0 || res.LastNS <= 0 {
		t.Fatalf("goodput %f over %d ns", res.GoodputRPS, res.LastNS)
	}
	// The modeled service floor: fan-out of 2 at 2us service time means no
	// request can complete faster than the service time.
	if res.P50NS < int64(2*sim.Microsecond) {
		t.Fatalf("p50 %dns below the 2us service-time floor", res.P50NS)
	}
}

// Two runs at one seed must agree exactly, field for field — the property
// every bench row and scenario report builds on.
func TestRunDeterministicBothGenerations(t *testing.T) {
	for _, gen := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		m, wl := machine{gen: gen, nodes: 6}, openWorkload(7)
		a, b := mustRun(t, m, wl), mustRun(t, m, wl)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: repeated run diverged:\n%+v\n%+v", gen, a, b)
		}
		wl.Seed = 8
		if reflect.DeepEqual(a, mustRun(t, m, wl)) {
			t.Fatalf("%v: different seeds produced identical results", gen)
		}
	}
}

// The two generations must NOT agree with each other: FM1's staging copies
// are a real latency cost the tail sees.
func TestGenerationsDiffer(t *testing.T) {
	wl := openWorkload(3)
	fm2 := mustRun(t, machine{gen: xport.GenFM2, nodes: 6}, wl)
	fm1 := mustRun(t, machine{gen: xport.GenFM1, nodes: 6}, wl)
	if fm2.P99NS == fm1.P99NS && fm2.MeanUS == fm1.MeanUS {
		t.Fatal("fm1 and fm2 report identical latency; the generations should price differently")
	}
	if fm2.Completed != fm1.Completed {
		t.Fatalf("completion counts differ across generations: %d vs %d", fm2.Completed, fm1.Completed)
	}
}

func TestClosedLoopKeepsOneOutstanding(t *testing.T) {
	res := mustRun(t, machine{nodes: 4}, Workload{
		Mode: ModeClosed, Requests: 25, Fanout: 1, Keyspace: 16, ZipfS: 0.9,
		RespBytes: 128, Seed: 11,
	})
	if res.Completed != 100 {
		t.Fatalf("completed %d, want 100", res.Completed)
	}
	if res.Mode != string(ModeClosed) {
		t.Fatalf("mode %q", res.Mode)
	}
	// Closed loop self-paces: mean latency must stay near the service floor
	// (no queueing collapse is possible with one outstanding per client).
	if res.MeanUS > 200 {
		t.Fatalf("closed-loop mean %.1fus, implausibly high", res.MeanUS)
	}
}

func TestIncastConcentratesOnOneShard(t *testing.T) {
	res := mustRun(t, machine{nodes: 8, fatTree: true}, Workload{
		Mode: ModeIncast, Requests: 12, RateRPS: 20_000, Fanout: 1,
		RespBytes: 1024, Seed: 5,
	})
	if res.Completed != 8*12 {
		t.Fatalf("completed %d, want %d", res.Completed, 8*12)
	}
	// Every request targets key 0: one shard serves everything.
	if res.HotServed != 8*12 || res.ColdServed != 0 {
		t.Fatalf("hot/cold served %d/%d, want %d/0", res.HotServed, res.ColdServed, 8*12)
	}
	// Synchronized fan-in has to cost more than an uncontended request.
	if res.P99NS <= int64(4*sim.Microsecond) {
		t.Fatalf("incast p99 %dns shows no queueing", res.P99NS)
	}
}

// Zipf skew must surface as shard imbalance in the served counters.
func TestSkewShowsInShardCounters(t *testing.T) {
	run := func(s float64) Result {
		wl := openWorkload(9)
		wl.Fanout = 1
		wl.ZipfS = s
		wl.Requests = 100
		return mustRun(t, machine{nodes: 8}, wl)
	}
	uniform, skewed := run(0), run(1.3)
	if skewed.HotServed <= uniform.HotServed {
		t.Fatalf("zipf s=1.3 hot shard served %d <= uniform %d", skewed.HotServed, uniform.HotServed)
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []Workload{
		{Mode: "bogus", Requests: 1, RateRPS: 1, Fanout: 1},
		{Requests: 0, RateRPS: 1, Fanout: 1},
		{Requests: 1, RateRPS: 0, Fanout: 1}, // open needs a rate
		{Requests: 1, RateRPS: 1, Fanout: 9}, // fanout > nodes
		{Requests: 1, RateRPS: 1, Fanout: 1, ZipfS: -1},
		{Requests: 1, RateRPS: 1, Fanout: 1, ReqBytes: -4},
		{Requests: 1, RateRPS: 1, Fanout: 1, Drain: -sim.Microsecond},
		{Requests: 1, RateRPS: 1, Fanout: 1, Keyspace: 20_000_000_000}, // used to ask for 160 GB
	}
	for i, wl := range bad {
		if wl.Validate(4) == nil {
			t.Errorf("workload %d validated, want error", i)
		}
		if _, _, f := buildFleet(t, machine{nodes: 4}); f.Plan(wl) == nil {
			t.Errorf("workload %d accepted, want error", i)
		}
	}
	// Schedules past the replay horizon, which only Plan generates: one
	// request per 1e300 s used to complete, its arrival converted to near 0.
	for i, wl := range []Workload{
		{Requests: 1, RateRPS: 1e-300, Fanout: 1},
		{Mode: ModeIncast, Requests: 1, RateRPS: 1e-300, Fanout: 1},
		{Mode: ModeIncast, Requests: 2, RateRPS: 1, Fanout: 1},
	} {
		if _, _, f := buildFleet(t, machine{nodes: 4}); f.Plan(wl) == nil {
			t.Errorf("schedule %d past the horizon accepted, want error", i)
		}
	}
	if err := openWorkload(1).Validate(4); err != nil {
		t.Errorf("good workload rejected: %v", err)
	}
}

// Per-service endpoint accounting must see the RPC traffic on both sides.
func TestEndpointAccountingSeesRPC(t *testing.T) {
	wl := openWorkload(21)
	pl, spaces, f := buildFleet(t, machine{nodes: 4})
	if err := f.Plan(wl); err != nil {
		t.Fatal(err)
	}
	res := runFleet(t, pl, f)
	var sentMsgs, recvMsgs, sentBytes int64
	for _, sp := range spaces {
		st := sp.Stats()
		sentMsgs += st.SentMsgs
		sentBytes += st.SentBytes
		recvMsgs += st.Msgs
	}
	// Every sub-request and sub-response is one RPC-service message.
	wantMsgs := res.SubRequests + res.Served
	if sentMsgs != wantMsgs {
		t.Fatalf("service sent-msg accounting %d, want %d", sentMsgs, wantMsgs)
	}
	if recvMsgs != wantMsgs {
		t.Fatalf("service recv-msg accounting %d, want %d", recvMsgs, wantMsgs)
	}
	wantBytes := res.SubRequests*int64(reqHeaderSize+wl.ReqBytes) +
		res.Served*int64(respHeaderSize+wl.RespBytes)
	if sentBytes != wantBytes {
		t.Fatalf("service sent-byte accounting %d, want %d", sentBytes, wantBytes)
	}
}
