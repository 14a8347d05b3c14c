package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanRing is a no-fault baseline: closed-loop ring traffic that must
// complete with a clean fabric.
func cleanRing(fm int) Spec {
	return Spec{
		Name:    "clean-ring",
		Nodes:   4,
		FM:      fm,
		Traffic: Traffic{Pattern: "ring", Messages: 8, Size: 2048},
		Assert:  Assert{Outcome: OutcomeComplete, AllDelivered: true, ZeroLoss: true},
	}
}

func TestCleanScenarioCompletes(t *testing.T) {
	for _, fm := range []int{1, 2} {
		rep := Run(cleanRing(fm), 42)
		if !rep.Passed {
			t.Fatalf("fm%d: clean ring failed: %v", fm, rep.Failures)
		}
		if rep.Outcome != OutcomeComplete {
			t.Fatalf("fm%d: outcome %q", fm, rep.Outcome)
		}
		if rep.MsgsRecvd != rep.MsgsExpected || rep.MsgsExpected == 0 {
			t.Fatalf("fm%d: delivered %d of %d", fm, rep.MsgsRecvd, rep.MsgsExpected)
		}
		if rep.Hang != nil {
			t.Fatalf("fm%d: hang diagnostic on a completed run", fm)
		}
	}
}

// TestDropScenarioWatchdogs pins the ISSUE's headline bugfix: a lossy
// fabric under closed-loop traffic used to hang the harness forever; now
// the watchdog converts it into a failed-with-diagnostic report carrying
// the credit-leak accounting.
func TestDropScenarioWatchdogs(t *testing.T) {
	spec := Spec{
		Name:       "drop-hang",
		Nodes:      4,
		Traffic:    Traffic{Pattern: "ring", Messages: 50, Size: 4096},
		Faults:     []Fault{{Links: "n*->sw", DropProb: 0.08}},
		WatchdogMS: 20,
		Assert:     Assert{Outcome: OutcomeWatchdog, MinLeakedCredits: 1},
	}
	rep := Run(spec, 7)
	if rep.Outcome != OutcomeWatchdog {
		t.Fatalf("outcome %q, want watchdog (report: %+v)", rep.Outcome, rep)
	}
	if !rep.Passed {
		t.Fatalf("watchdog scenario should pass its own assertions: %v", rep.Failures)
	}
	if rep.LeakedCredits == 0 {
		t.Fatal("expected leaked credits under drops")
	}
	d := rep.Hang
	if d == nil {
		t.Fatal("watchdog outcome must carry a hang diagnostic")
	}
	if len(d.WaitingRanks) == 0 {
		t.Fatal("hang diagnostic lists no waiting ranks")
	}
	if d.LastEventNS <= 0 {
		t.Fatal("hang diagnostic has no last event time")
	}
	leaked := int64(0)
	for _, nd := range d.PerNode {
		leaked += nd.LeakedAsSender
	}
	if leaked != rep.LeakedCredits {
		t.Fatalf("per-node leak accounting %d != fabric total %d", leaked, rep.LeakedCredits)
	}
	if len(rep.Lost) == 0 {
		t.Fatal("loss registry empty despite drops")
	}
}

// TestCorruptScenarioCRCDropsWithoutCrash pins the CRC bugfix: corrupted
// frames used to reach the FM engines and panic them; now the NIC drops
// them with accounting and the run finishes.
func TestCorruptScenarioCRCDropsWithoutCrash(t *testing.T) {
	for _, fm := range []int{1, 2} {
		// A must-complete scenario under corruption keeps each pair's total
		// traffic within one credit window (FM1: 16 packets), so Send never
		// blocks on a credit return — which corruption may destroy (a
		// CRC-dropped credit frame starves the sender forever; that variant
		// is what the watchdog scenarios exercise).
		spec := Spec{
			Name:    "corrupt-openloop",
			Nodes:   4,
			FM:      fm,
			Poison:  true,
			Traffic: Traffic{Pattern: "alltoall", Messages: 4, Size: 256, OpenLoop: true},
			Faults:  []Fault{{Links: "*", CorruptProb: 0.05}},
			Assert:  Assert{Outcome: OutcomeComplete, MinCRCDropped: 1},
		}
		rep := Run(spec, 13)
		if rep.Outcome == OutcomePanic {
			t.Fatalf("fm%d: corruption crashed the run: %v", fm, rep.Failures)
		}
		if !rep.Passed {
			t.Fatalf("fm%d: corrupt scenario failed: %v (outcome %s)", fm, rep.Failures, rep.Outcome)
		}
		if rep.CRCDropped == 0 {
			t.Fatalf("fm%d: no CRC drops at 5%% corruption", fm)
		}
	}
}

// TestChaosDeterminism is the campaign-seed contract from the ISSUE: the
// same seed must reproduce bit-identical reports — virtual time, event
// count, and every per-link fault counter — across runs, on both FM
// bindings, with poison-on-recycle on, under -race.
func TestChaosDeterminism(t *testing.T) {
	for _, fm := range []int{1, 2} {
		spec := Spec{
			Name:   "chaos-determinism",
			Nodes:  6,
			FM:     fm,
			Poison: true,
			Traffic: Traffic{
				Pattern: "alltoall", Messages: 10, Size: 4096, OpenLoop: true, DrainMS: 2,
			},
			Faults: []Fault{
				{Links: "n*->sw", DropProb: 0.03, CorruptProb: 0.03},
				{Links: "sw->n*", FlapUpMS: 4, FlapDownMS: 0.3},
			},
			WatchdogMS: 30,
		}
		a := Run(spec, 99)
		b := Run(spec, 99)
		ab, bb := a.Marshal(), b.Marshal()
		if !bytes.Equal(ab, bb) {
			t.Fatalf("fm%d: same seed, different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", fm, ab, bb)
		}
		if a.Dropped+a.Corrupted+a.DownDropped == 0 {
			t.Fatalf("fm%d: chaos scenario injected no faults", fm)
		}
		c := Run(spec, 100)
		if bytes.Equal(ab, c.Marshal()) {
			t.Fatalf("fm%d: different seeds produced identical reports", fm)
		}
	}
}

func TestAllreducePatternRuns(t *testing.T) {
	spec := Spec{
		Name:    "allreduce-clean",
		Nodes:   4,
		Traffic: Traffic{Pattern: "allreduce", Messages: 5, Size: 64},
		Assert:  Assert{Outcome: OutcomeComplete, AllDelivered: true, ZeroLoss: true},
	}
	rep := Run(spec, 21)
	if !rep.Passed {
		t.Fatalf("allreduce failed: %v (outcome %s)", rep.Failures, rep.Outcome)
	}
}

// TestRPCScenarioCleanTailLatency drives the rpc traffic kind on a clean
// fabric: tail-latency assertions evaluate against the RPC section, the
// delivery ledger maps to the fleet's planned/issued/completed counters,
// and same-seed reports are bit-identical on both FM bindings.
// TestEveryPatternRunsClean ranges over the pattern table, so a new row is
// run on both FM generations without anyone adding it to a list: the
// smallest spec the row accepts (one-packet messages) completes, delivers
// everything it expected and leaves the fabric clean.
func TestEveryPatternRunsClean(t *testing.T) {
	for name, pat := range patterns {
		for _, fm := range []int{1, 2} {
			spec := Spec{
				Name: "clean-" + name, Nodes: 5, FM: fm,
				Traffic: Traffic{Pattern: name, Messages: 3, Size: 64},
				Assert:  Assert{Outcome: OutcomeComplete, AllDelivered: true, ZeroLoss: true},
			}
			if pat.reads&fRPC != 0 {
				spec.Traffic.RateRPS = 20_000
			}
			rep := Run(spec, DefaultSeed)
			if !rep.Passed || rep.MsgsExpected == 0 {
				t.Errorf("%s on fm%d: outcome %s, delivered %d of %d: %v",
					name, fm, rep.Outcome, rep.MsgsRecvd, rep.MsgsExpected, rep.Failures)
			}
		}
	}
}

func TestRPCScenarioCleanTailLatency(t *testing.T) {
	for _, fm := range []int{1, 2} {
		spec := Spec{
			Name:  "rpc-clean",
			Nodes: 6,
			FM:    fm,
			Traffic: Traffic{
				Pattern: "rpc", Messages: 15, Size: 64,
				RateRPS: 20_000, Fanout: 2, Keyspace: 64, ZipfS: 1.1,
				RespSize: 256, ServiceUS: 2,
			},
			Assert: Assert{
				Outcome: OutcomeComplete, AllDelivered: true, ZeroLoss: true,
				MaxP99MS: 5, MinCompleted: 6 * 15,
			},
		}
		rep := Run(spec, 42)
		if !rep.Passed {
			t.Fatalf("fm%d: rpc scenario failed: %v (outcome %s)", fm, rep.Failures, rep.Outcome)
		}
		if rep.RPC == nil {
			t.Fatalf("fm%d: no RPC section on an rpc run", fm)
		}
		if rep.RPC.Completed != 6*15 || rep.MsgsRecvd != rep.RPC.Completed {
			t.Fatalf("fm%d: completed %d (recvd %d), want %d", fm, rep.RPC.Completed, rep.MsgsRecvd, 6*15)
		}
		if rep.RPC.P99NS < rep.RPC.P50NS || rep.RPC.P50NS <= 0 {
			t.Fatalf("fm%d: bad quantiles p50=%d p99=%d", fm, rep.RPC.P50NS, rep.RPC.P99NS)
		}
		again := Run(spec, 42)
		if !bytes.Equal(rep.Marshal(), again.Marshal()) {
			t.Fatalf("fm%d: same seed, different rpc reports", fm)
		}
	}
}

// TestRPCScenarioTailAssertionFails pins the failure path: an impossible
// p99 bound must fail the report, not pass vacuously.
func TestRPCScenarioTailAssertionFails(t *testing.T) {
	spec := Spec{
		Name:  "rpc-tight",
		Nodes: 4,
		Traffic: Traffic{
			Pattern: "rpc", Messages: 10, Size: 64,
			RateRPS: 50_000, RespSize: 128, ServiceUS: 2,
		},
		// 2us of service alone blows a 1ns p99 budget.
		Assert: Assert{Outcome: OutcomeComplete, MaxP99MS: 0.000001},
	}
	rep := Run(spec, 7)
	if rep.Passed {
		t.Fatal("impossible p99 bound passed")
	}
	if rep.Outcome != OutcomeComplete {
		t.Fatalf("run itself should complete, got %q: %v", rep.Outcome, rep.Failures)
	}
}

func TestScenarioSeedDecorrelatesNames(t *testing.T) {
	if ScenarioSeed(5, "a") == ScenarioSeed(5, "b") {
		t.Fatal("different scenario names share a seed")
	}
	if ScenarioSeed(5, "a") != ScenarioSeed(5, "a") {
		t.Fatal("scenario seed not stable")
	}
}

func TestSpecValidateRejectsGarbage(t *testing.T) {
	bad := []Spec{
		{Name: "", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 1, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 4, Topology: "moebius", Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 4, FM: 3, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "gossip", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 0, Size: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 0}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Assert: Assert{Outcome: "maybe"}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Faults: []Fault{{Links: "*", DropProb: 1.5}}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RPCMode: "bursty", RateRPS: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, Fanout: 5}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, Keyspace: -1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, ZipfS: -0.5}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, ServiceUS: -1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1, RateRPS: 1000}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Assert: Assert{MaxP99MS: 1}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1}, Assert: Assert{MaxP99MS: -1}},
		// A field the pattern's row does not read is an error, not a no-op.
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, OpenLoop: true}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "allreduce", Messages: 1, Size: 4, OpenLoop: true}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "allreduce", Messages: 1, Size: 4, DrainMS: 2}},
		// A time past maxMS used to wrap int64 virtual nanoseconds.
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, WatchdogMS: 1e13},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1, OpenLoop: true, DrainMS: 1e13}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Faults: []Fault{{Links: "*", FlapUpMS: 1e13, FlapDownMS: 1}}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Faults: []Fault{{Links: "*", FlapUpMS: 1, FlapDownMS: 1e13}}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Faults: []Fault{{Links: "*", DownFromMS: 1e13}}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "ring", Messages: 1, Size: 1}, Faults: []Fault{{Links: "*", DownFromMS: 1, DownUntilMS: 1e13}}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1}, Assert: Assert{MaxP99MS: 1e13}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1}, Assert: Assert{MaxP999MS: 1e13}},
		{Name: "x", Nodes: 4, Traffic: Traffic{Pattern: "rpc", Messages: 1, Size: 1, RateRPS: 1, ServiceUS: 1e16}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d validated", i)
		}
	}
	good := cleanRing(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestUnbuildableShapeIsAnErrorOutcome: a valid spec whose fabric cannot be
// built (1025 fat-tree edge switches against a spine's 256 ports) reports
// OutcomeError; Run's "never panics" covers construction too.
func TestUnbuildableShapeIsAnErrorOutcome(t *testing.T) {
	spec := cleanRing(2)
	spec.Nodes, spec.Topology = 2050, "fattree"
	rep := Run(spec, DefaultSeed)
	if rep.Outcome != OutcomeError || rep.Passed {
		t.Fatalf("outcome %q passed=%v, want %q: %v", rep.Outcome, rep.Passed, OutcomeError, rep.Failures)
	}
}

// TestOversizeMessageIsAnErrorOutcome: a message larger than the session's
// FM generation carries is the spec's error, named with the limit, not a
// hang diagnosed at the watchdog after every send failed.
func TestOversizeMessageIsAnErrorOutcome(t *testing.T) {
	for _, c := range []struct {
		pattern string
		fm      int
		size    int
		limit   string
	}{
		{"ring", 2, 5_000_000, "4194304"},
		{"pairs", 1, 2_000_000, "1048576"},
		{"allreduce", 2, 5_000_000, "4194280"}, // after the 24-byte MPI header
		{"allreduce", 2, 4_194_281, "4194280"}, // rounded up to whole words
	} {
		spec := cleanRing(c.fm)
		spec.Traffic.Pattern, spec.Traffic.Messages, spec.Traffic.Size = c.pattern, 1, c.size
		rep := Run(spec, DefaultSeed)
		if rep.Outcome != OutcomeError || len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], c.limit) {
			t.Errorf("%s fm%d size %d: outcome %q, failures %v; want %q naming the limit %s",
				c.pattern, c.fm, c.size, rep.Outcome, rep.Failures, OutcomeError, c.limit)
		}
	}
	spec := cleanRing(2)
	spec.Traffic.Pattern, spec.Traffic.Messages, spec.Traffic.Size = "allreduce", 1, 4_194_280
	spec.Assert, spec.WatchdogMS = Assert{Outcome: OutcomeComplete}, 1000
	if rep := Run(spec, DefaultSeed); !rep.Passed {
		t.Errorf("allreduce at the limit: %v", rep.Failures)
	}
}

func TestCampaignRunsDirectoryDeterministically(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("10-clean.json", `{
  "name": "clean", "nodes": 3,
  "traffic": {"pattern": "ring", "messages": 4, "size": 1024},
  "assert": {"outcome": "complete", "all_delivered": true, "zero_loss": true}
}`)
	write("20-drop.json", `{
  "name": "drop", "nodes": 3, "watchdog_ms": 10,
  "traffic": {"pattern": "ring", "messages": 40, "size": 4096},
  "faults": [{"links": "*", "drop_prob": 0.1}],
  "assert": {"outcome": "watchdog", "min_leaked_credits": 1}
}`)
	write(GoldenName, `{"this must be skipped, not parsed": true}`)
	write("notes.txt", "not a scenario")

	c1, err := RunCampaign(dir, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Total != 2 {
		t.Fatalf("ran %d scenarios, want 2", c1.Total)
	}
	if !c1.Passed {
		t.Fatalf("campaign failed: %+v", c1)
	}
	c2, err := RunCampaign(dir, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Marshal(), c2.Marshal()) {
		t.Fatal("same campaign seed, different campaign bytes")
	}
}

// TestSmokeCampaignMatchesGolden replays the committed campaign under the
// default seed and diffs the bytes against the committed golden report
// (cmd/fmbench's golden table holds the CLI's stdout to the same file).
// Regenerate with:
//
//	go run ./cmd/fmbench -campaign campaigns/smoke > campaigns/smoke/golden.json
func TestSmokeCampaignMatchesGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns", "smoke")
	golden, err := os.ReadFile(filepath.Join(dir, GoldenName))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	c, err := RunCampaign(dir, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Passed {
		t.Fatalf("smoke campaign failed: %d of %d scenarios", c.Failed, c.Total)
	}
	if got := c.Marshal(); !bytes.Equal(got, golden) {
		t.Fatalf("campaign report drifted from committed golden (regenerate if the change is intended)\n--- got ---\n%s", got)
	}
}

// TestSvcCampaignMatchesGolden does the same for the committed RPC
// service-workload campaign: baseline tail budget, incast under trunk flaps
// with honest abandonment, and a closed-loop FM 1.x chain. Regenerate with:
//
//	go run ./cmd/fmbench -campaign campaigns/svc > campaigns/svc/golden.json
func TestSvcCampaignMatchesGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns", "svc")
	golden, err := os.ReadFile(filepath.Join(dir, GoldenName))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	c, err := RunCampaign(dir, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Passed {
		t.Fatalf("svc campaign failed: %d of %d scenarios", c.Failed, c.Total)
	}
	if got := c.Marshal(); !bytes.Equal(got, golden) {
		t.Fatalf("campaign report drifted from committed golden (regenerate if the change is intended)\n--- got ---\n%s", got)
	}
}

// TestShardedCampaignMatchesSequential pins the replica-parallel contract:
// RunCampaignN merges per-scenario reports in filename order, so its bytes
// must equal the one-worker runner's (and hence the committed golden) no
// matter how many OS threads execute the scenarios.
func TestShardedCampaignMatchesSequential(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns", "smoke")
	seq, err := RunCampaignN(dir, DefaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		shard, err := RunCampaignN(dir, DefaultSeed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Marshal(), shard.Marshal()) {
			t.Fatalf("workers=%d: sharded campaign bytes diverge from sequential", workers)
		}
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo.json")
	body := `{
  "name": "typo", "nodes": 3,
  "traffic": {"pattern": "ring", "messages": 4, "size": 1024},
  "assert": {"outcom": "complete"}
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("typoed assertion field accepted silently")
	}
}
