package garr

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

func arrays(t *testing.T, ranks, size int) (*sim.Kernel, []*Array) {
	return genArrays(t, xport.GenFM2, ranks, size)
}

// genArrays attaches one global array across a one-switch platform of
// generation g's machine.
func genArrays(t *testing.T, g xport.Gen, ranks, size int) (*sim.Kernel, []*Array) {
	m := g.Machine()
	k := sim.NewKernel()
	eps := xport.AttachEndpoints(cluster.New(k, m.Config(ranks, cluster.SingleSwitch)), m)
	out := make([]*Array, ranks)
	for i, sp := range xport.Spaces(eps, Service) {
		a, err := Attach(sp, 1, size, ranks)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return k, out
}

func TestBlockDistribution(t *testing.T) {
	_, as := arrays(t, 4, 10)
	// blockLen = 3: ranks own [0,3) [3,6) [6,9) [9,10).
	wantLo := []int{0, 3, 6, 9}
	wantHi := []int{3, 6, 9, 10}
	for r, a := range as {
		lo, hi := a.LocalBounds()
		if lo != wantLo[r] || hi != wantHi[r] {
			t.Errorf("rank %d bounds [%d,%d), want [%d,%d)", r, lo, hi, wantLo[r], wantHi[r])
		}
	}
	if as[0].OwnerOf(5) != 1 || as[0].OwnerOf(9) != 3 {
		t.Error("OwnerOf wrong")
	}
}

func TestPutGetAcrossRanks(t *testing.T) {
	k, as := arrays(t, 3, 30)
	done := false
	k.Spawn("rank0", func(p *sim.Proc) {
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = float64(i) * 1.5
		}
		if err := as[0].Put(p, 0, vals); err != nil {
			t.Error(err)
		}
		out := make([]float64, 30)
		if err := as[0].Get(p, 0, out); err != nil {
			t.Error(err)
		}
		for i := range out {
			if out[i] != vals[i] {
				t.Errorf("idx %d: %v != %v", i, out[i], vals[i])
				break
			}
		}
		done = true
	})
	for r := 1; r < 3; r++ {
		r := r
		k.Spawn(fmt.Sprintf("serve%d", r), func(p *sim.Proc) {
			for !done {
				as[r].Progress(p)
				p.Delay(sim.Microsecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeValidation(t *testing.T) {
	k, as := arrays(t, 2, 8)
	k.Spawn("rank0", func(p *sim.Proc) {
		if err := as[0].Put(p, 7, []float64{1, 2}); err == nil {
			t.Error("overflow Put accepted")
		}
		if err := as[0].Get(p, -1, make([]float64, 1)); err == nil {
			t.Error("negative Get accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalViewRoundtrip(t *testing.T) {
	_, as := arrays(t, 2, 8)
	as[0].SetLocal([]float64{3.25, -1, 0, 9})
	got := as[0].Local()
	want := []float64{3.25, -1, 0, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("local[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
