package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue in metrics.go and main.go")

// contract is BENCHMARK.json, field for field.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantContract() contract {
	c := contract{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractLoad{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{d.name, d.unit, d.better, nil})
	}
	return c
}

// TestContract holds BENCHMARK.json and the code together: the workload and
// metric names the code emits are exactly those the file declares, inside
// the contract's syntax and count limits. `go test ./benchmark -run
// TestContract -update` rewrites the file from the code.
func TestContract(t *testing.T) {
	c := wantContract()
	want, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in the code; run go test ./benchmark -run TestContract -update\n%s", want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the name syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound < 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil {
			setup = true
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
}

// Toy scales: every workload on 2-16 nodes, a fraction of a second each.
var (
	toyChurn     = churnSize{procs: 256, ticks: 40, msgs: 30, acquires: 12, groupSize: 16}
	toyAllreduce = allreduceSize{ranks: 16, rounds: 2, bytes: 1024}
)

var toy = []workload{
	{name: "kernel-churn", run: runChurn(toyChurn), layers: churnLayers(toyChurn)},
	{name: "pt2pt-sweep", run: runPt2pt(pt2ptSize{scale: 2}), layers: pt2ptLayers(pt2ptSize{scale: 2})},
	{name: "allreduce-fattree", run: runAllreduce(toyAllreduce), layers: allreduceLayers(toyAllreduce, 1)},
	{name: "rpc-open", run: runRPC(rpcSize{nodes: 8, requests: 12, rates: rpcRates})},
	{name: "chaos-campaign", run: runChaos(chaosSize{seeds: 1}), layers: chaosLayers(chaosSize{seeds: 1})},
}

// TestWorkloads runs every workload at toy scale through the timed and the
// traced path: all output checks pass, two repetitions of one seed agree on
// every exact value, and each path emits exactly the metrics BENCHMARK.json
// promises for it.
func TestWorkloads(t *testing.T) {
	if len(toy) != len(workloads) {
		t.Fatalf("%d toy workloads for %d real ones", len(toy), len(workloads))
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull // the reports are for people; the results are checked below
	defer func() { os.Stdout = stdout }()

	for i, w := range toy {
		if w.name != workloads[i].name {
			t.Fatalf("toy workload %d is %s, real one %s", i, w.name, workloads[i].name)
		}
		timed, err := runTimed(&w, 7, 0.001) // three repetitions, the minimum
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !timed.Correct || timed.Failed != 0 || timed.Attempted < 1 {
			t.Errorf("%s: timed run incorrect: %+v", w.name, timed)
		}
		if len(timed.Metrics) != len(endToEnd) {
			t.Errorf("%s: timed run emitted %d metrics, want %d", w.name, len(timed.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := timed.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v): must be positive, in %s", w.name, d.name, v, ok, d.unit)
			}
		}
		traced, err := runTraced(&w, 7, t.TempDir())
		if err != nil {
			t.Fatalf("%s: traced: %v", w.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run incorrect: %+v", w.name, traced)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run emitted %d metrics, want %d", w.name, len(traced.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if v, ok := traced.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, d.name, v, ok)
			}
		}
	}
}

// TestSeedChangesInputs: another seed is another input set, the same seed
// the same one.
func TestSeedChangesInputs(t *testing.T) {
	a, b, c := newChurnInputs(1), newChurnInputs(1), newChurnInputs(2)
	if a.delay(3, 5) != b.delay(3, 5) {
		t.Error("one seed, two delay tables")
	}
	same := 0
	for j := 0; j < 64; j++ {
		if a.delay(3, j) == c.delay(3, j) {
			same++
		}
	}
	if same > 8 {
		t.Errorf("seeds 1 and 2 share %d of 64 delays", same)
	}
	if bytes.Equal(payload(seedFor(1, "x"), 64), payload(seedFor(2, "x"), 64)) || bytes.Equal(payload(seedFor(1, "x"), 64), payload(seedFor(1, "y"), 64)) {
		t.Error("payload streams are not independent across seeds and salts")
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{5, 2, 50},          // too few for any tail: the median
		{10, 4, 50},         // still no percentile with ten beyond it
		{11, 0, 100.0 / 11}, // exactly ten beyond the smallest sample
		{70, 59, 100 * 60.0 / 70},
		{200, 189, 95},
		{1000, 989, 99}, // ten beyond, and that is p99
		{1536, 1520, 100 * 1521.0 / 1536},
		{100000, 98999, 99}, // capped at p99
	} {
		idx, pct := tailRank(c.n)
		if idx != c.idx || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailRank(%d) = %d, p%.4f; want %d, p%.4f", c.n, idx, pct, c.idx, c.pct)
		}
		if c.n >= 11 && c.n-1-idx < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond, want >= 10", c.n, c.n-1-idx)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12})
	if s.p50 != 6 || s.tail != 2 || s.n != 12 {
		t.Errorf("summarize: %+v", s)
	}
}

// TestQuartiles pins the cut points to CPython's
// statistics.quantiles(values, n=4), the rule the acceptance spread uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // extrapolated, as CPython does
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(c.vs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestLadderSelf(t *testing.T) {
	chain := []rungCost{{"sim", 100, 4, 0}, {"netsim", 130, 4, 0.5}, {"lanai", 900, 30, 0.5}, {"fm2", 880, 34, 1}}
	self := ladderSelf(chain)
	want := []rungCost{{"sim", 100, 4, 0}, {"netsim", 30, 0, 0.5}, {"lanai", 770, 26, 0}, {"fm2", -20, 4, 0.5}}
	var host, events float64
	for i, s := range self {
		if s != want[i] {
			t.Errorf("self[%d] = %+v, want %+v", i, s, want[i])
		}
		host, events = host+s.hostNS, events+s.events
	}
	top := chain[len(chain)-1]
	if host != top.hostNS || events != top.events {
		t.Errorf("self costs sum to %v ns, %v events; top rung is %v ns, %v events", host, events, top.hostNS, top.events)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, layer: "driver", virtStart: 0, virtEnd: 100},
		{id: 2, parent: 1, layer: "mpifm", virtStart: 10, virtEnd: 40},
		{id: 3, parent: 1, layer: "mpifm", virtStart: 30, virtEnd: 60},  // overlaps span 2: counted once
		{id: 4, parent: 1, layer: "mpifm", virtStart: 90, virtEnd: 120}, // runs past its parent: clipped
		{id: 5, parent: 2, layer: "fm2", virtStart: 12, virtEnd: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]sim.Time{1: 100 - 50 - 10, 2: 30 - 8, 3: 30, 4: 30, 5: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := layerSelfVirt(spans)["mpifm"]; math.Abs(got-(22+30+30)/1e3) > 1e-12 {
		t.Errorf("mpifm virtual self time %v us", got)
	}
}

// TestFabricShape: the fabric the netsim rung builds is the fabric
// cluster.TryNew builds for the rungs above it.
func TestFabricShape(t *testing.T) {
	for _, c := range []struct {
		nodes int
		topo  cluster.Topology
	}{{2, cluster.DirectPair}, {16, cluster.FatTree}, {256, cluster.FatTree}} {
		cfg := clusterConfig(xport.GenFM2, c.nodes, c.topo)
		bare, err := newFabric(sim.NewKernel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cluster.TryNew(sim.NewKernel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Describe() != pl.Net.Describe() || len(bare.Links()) != len(pl.Net.Links()) {
			t.Errorf("%d nodes: netsim rung builds %q (%d links), cluster builds %q (%d links)",
				c.nodes, bare.Describe(), len(bare.Links()), pl.Net.Describe(), len(pl.Net.Links()))
		}
	}
}
