package bench

import (
	"strings"
	"testing"

	"repro/internal/mpifm"
	"repro/internal/xport"
)

func TestCollectiveTimePositive(t *testing.T) {
	for _, g := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		for _, op := range AllCollectives {
			if d := CollectiveTime(g.Machine(), op, mpifm.AlgoAuto, 4, 256, 1); d <= 0 {
				t.Errorf("%s %s: non-positive time %v", g, op, d)
			}
		}
	}
}

// TestCollectiveScalingGrowsWithRanks: more ranks must cost more time for
// an all-to-all pattern on the same machine.
func TestCollectiveScalingGrowsWithRanks(t *testing.T) {
	small := CollectiveTime(xport.GenFM2.Machine(), CollAlltoall, mpifm.AlgoAuto, 2, 512, 1)
	big := CollectiveTime(xport.GenFM2.Machine(), CollAlltoall, mpifm.AlgoAuto, 8, 512, 1)
	if big <= small {
		t.Errorf("alltoall at 8 ranks (%v) not slower than at 2 (%v)", big, small)
	}
}

// TestCollectiveFM2Faster: the layering-efficiency headline must extend to
// collectives — MPI-FM 2.0 beats MPI over FM 1.x on every op.
func TestCollectiveFM2Faster(t *testing.T) {
	for _, op := range AllCollectives {
		t1 := CollectiveTime(xport.GenFM1.Machine(), op, mpifm.AlgoAuto, 8, 1024, 1)
		t2 := CollectiveTime(xport.GenFM2.Machine(), op, mpifm.AlgoAuto, 8, 1024, 1)
		if t2 >= t1 {
			t.Errorf("%s: MPI-FM 2.0 (%v) not faster than MPI/FM1 (%v)", op, t2, t1)
		}
	}
}

func TestWriteCollectiveScalingRenders(t *testing.T) {
	cfg := CollectiveScalingConfig{
		Ops:   []CollectiveOp{CollBcast, CollAllreduce},
		Ranks: []int{2, 4},
		Size:  256,
		Iters: 1,
		Algo:  mpifm.AlgoAuto,
	}
	var sb strings.Builder
	WriteCollectiveScaling(&sb, cfg)
	out := sb.String()
	for _, want := range []string{"bcast", "allreduce", "ranks", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCollectiveAlgosRenders(t *testing.T) {
	var sb strings.Builder
	WriteCollectiveAlgos(&sb, 4, 256)
	out := sb.String()
	for _, want := range []string{"flat", "binomial", "ring", "recdbl"} {
		if !strings.Contains(out, want) {
			t.Errorf("algo table missing %q:\n%s", want, out)
		}
	}
}
