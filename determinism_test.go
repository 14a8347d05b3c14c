// Determinism regression: the internal/sim kernel documents that every run
// is bit-for-bit reproducible. These tests enforce that claim by running
// the same seeded simulations twice in-process — once for an fm2 bench
// configuration, once for a collectives configuration — and requiring
// identical stats and identical rendered figure output.
package fmnet

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/mpifm"
	"repro/internal/xport"
)

// TestDeterminismFM2Bench runs one FM 2.x bandwidth configuration twice and
// compares both the raw measurement bits and the rendered curve.
func TestDeterminismFM2Bench(t *testing.T) {
	sizes := []int{16, 256, 2048}
	render := func() (bench.Curve, []byte) {
		m := xport.GenFM2.Machine()
		c := bench.Curve{}
		for _, s := range sizes {
			c = append(c, bench.Point{Size: s, MBps: bench.FMBandwidth(m, s, 300)})
		}
		var buf bytes.Buffer
		bench.WriteCurve(&buf, "determinism probe", "MB/s", c)
		return c, buf.Bytes()
	}
	c1, out1 := render()
	c2, out2 := render()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("size %d: run 1 measured %v, run 2 measured %v", c1[i].Size, c1[i].MBps, c2[i].MBps)
		}
	}
	if !bytes.Equal(out1, out2) {
		t.Errorf("rendered figure differs between runs:\n%s\n--- vs ---\n%s", out1, out2)
	}
}

// TestDeterminismCollectives runs a collectives scaling configuration twice
// on both bindings and compares raw times and the rendered table.
func TestDeterminismCollectives(t *testing.T) {
	cfg := bench.CollectiveScalingConfig{
		Ops:   []bench.CollectiveOp{bench.CollAllreduce, bench.CollAlltoall},
		Ranks: []int{2, 4, 8},
		Size:  512,
	}
	render := func() []byte {
		var buf bytes.Buffer
		bench.WriteCollectiveScaling(&buf, cfg)
		return buf.Bytes()
	}
	out1 := render()
	out2 := render()
	if !bytes.Equal(out1, out2) {
		t.Errorf("collective scaling output differs between runs:\n%s\n--- vs ---\n%s", out1, out2)
	}
	t1 := bench.CollectiveTime(xport.GenFM2.Machine(), bench.CollAllreduce, mpifm.AlgoRing, 8, 1024)
	t2 := bench.CollectiveTime(xport.GenFM2.Machine(), bench.CollAllreduce, mpifm.AlgoRing, 8, 1024)
	if t1 != t2 {
		t.Errorf("ring allreduce time differs between runs: %v vs %v", t1, t2)
	}
}
