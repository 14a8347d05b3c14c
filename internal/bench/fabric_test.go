package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mpifm"
	"repro/internal/xport"
)

// TestRegimeSeparation is the acceptance check for the contention suite:
// under the cut load a single crossbar must classify as switch-limited
// (aggregate scales with flow count) and a line of switches — whose entire
// bisection is one trunk link — as bisection-limited.
func TestRegimeSeparation(t *testing.T) {
	const n, size, msgs = 8, 2048, 60
	single := MeasureBisection(xport.GenFM2.Machine(), FabSingle, n, size, msgs)
	if single.Regime != RegimeSwitchLimited {
		t.Errorf("single crossbar classified %s (scaling %.2fx of %d flows)",
			single.Regime, single.Scaling, n/2)
	}
	line := MeasureBisection(xport.GenFM2.Machine(), FabLine, n, size, msgs)
	if line.Regime != RegimeBisectionLimited {
		t.Errorf("line fabric classified %s (scaling %.2fx of %d flows)",
			line.Regime, line.Scaling, n/2)
	}
	// The line's aggregate must also be strictly worse than the crossbar's:
	// that gap is the trunk-contention tax the report prices.
	if line.AggMBps >= single.AggMBps {
		t.Errorf("line aggregate %.2f MB/s not below single-switch %.2f MB/s",
			line.AggMBps, single.AggMBps)
	}
}

// TestFatTreeUplinksWidenBisection checks that adding spines buys back
// aggregate cut bandwidth: a 2-spine (2:1 oversubscribed) fat tree must
// fall between the line and the crossbar.
func TestFatTreeUplinksWidenBisection(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	const n, size, msgs = 16, 2048, 60
	line := LayerBisection(LayerXport, xport.GenFM2.Machine(), FabLine, n, size, msgs)
	tree := LayerBisection(LayerXport, xport.GenFM2.Machine(), FabFatTree, n, size, msgs)
	if tree <= line {
		t.Errorf("fat tree aggregate %.2f MB/s not above line %.2f MB/s", tree, line)
	}
}

// TestCollectivesRunOnEveryFabric smoke-checks the collective drivers over
// the whole zoo on both bindings and pins virtual-time determinism.
func TestCollectivesRunOnEveryFabric(t *testing.T) {
	for _, f := range AllFabrics {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t1 := CollectiveTimeOn(xport.GenFM2.Machine(), f, CollAllreduce, mpifm.AlgoAuto, 8, 256)
			if t1 <= 0 {
				t.Fatalf("allreduce on %s took %v", f, t1)
			}
			if t2 := CollectiveTimeOn(xport.GenFM2.Machine(), f, CollAllreduce, mpifm.AlgoAuto, 8, 256); t2 != t1 {
				t.Fatalf("nondeterministic on %s: %v vs %v", f, t1, t2)
			}
			if testing.Short() {
				return
			}
			if t1 := CollectiveTimeOn(xport.GenFM1.Machine(), f, CollAlltoall, mpifm.AlgoAuto, 8, 256); t1 <= 0 {
				t.Fatalf("fm1 alltoall on %s took %v", f, t1)
			}
		})
	}
}

// TestLayerBisectionEveryLayer runs every row of the layer table — the bare
// window and each upper layer — through the cut driver once on the fat tree (the layering matrix cell most likely to wedge: many flows,
// shared uplinks, both bindings' flow control active).
func TestLayerBisectionEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	for _, l := range AllLayers {
		if mbps := LayerBisection(l, xport.GenFM2.Machine(), FabFatTree, 8, 1024, 30); mbps <= 0 {
			t.Errorf("%s cut aggregate %.2f MB/s", l, mbps)
		}
	}
}

// TestWriteFabricReport renders a miniature report and checks it names
// both regimes and every fabric — the -topo CLI path end to end.
func TestWriteFabricReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report")
	}
	cfg := FabricReportConfig{
		Fabrics:     AllFabrics,
		BisectNodes: 8, BisectSize: 2048, BisectMsgs: 40,
		MatrixNodes: 8, MatrixSize: 1024, MatrixMsgs: 25,
		Ops:   []CollectiveOp{CollAllreduce},
		Ranks: []int{4, 8},
		Size:  256,
	}
	var buf bytes.Buffer
	WriteFabricReport(&buf, cfg)
	out := buf.String()
	for _, want := range []string{
		string(RegimeSwitchLimited), string(RegimeBisectionLimited),
		"single", "line", "fattree", "torus", "xport", "allreduce",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
