package bench

import (
	"strings"
	"testing"

	"repro/internal/xport"
)

// TestLayeringMatrixAllCells runs the full cross product (the bare window's
// row and the 8 upper-layer cells) at one size and asserts the paper's generalized layering story: every layer moves
// data over both bindings, no layer beats its raw transport, and the FM 2.x
// interface delivers a higher fraction of raw bandwidth than FM 1.x for
// every single upper layer.
func TestLayeringMatrixAllCells(t *testing.T) {
	const size, msgs = 2048, 150
	cells := LayeringMatrix(size, msgs)
	if len(cells) != 2*len(AllLayers) {
		t.Fatalf("matrix has %d cells, want %d", len(cells), 2*len(AllLayers))
	}
	pct := map[Layer]map[xport.Gen]float64{}
	for _, c := range cells {
		if c.MBps <= 0 {
			t.Errorf("%s/%s: no bandwidth measured", c.Layer, c.Binding)
		}
		if c.RawMBps <= 0 {
			t.Errorf("%s/%s: raw baseline missing", c.Layer, c.Binding)
		}
		if c.Pct > 105 {
			t.Errorf("%s/%s: %.0f%% of raw — layering cannot add bandwidth", c.Layer, c.Binding, c.Pct)
		}
		if pct[c.Layer] == nil {
			pct[c.Layer] = map[xport.Gen]float64{}
		}
		pct[c.Layer][c.Binding] = c.Pct
	}
	for _, l := range AllLayers[1:] { // the layers above the bare window
		if pct[l][xport.GenFM2] <= pct[l][xport.GenFM1] {
			t.Errorf("%s: fm2 efficiency %.0f%% <= fm1 efficiency %.0f%%; the 2.x interface must win",
				l, pct[l][xport.GenFM2], pct[l][xport.GenFM1])
		}
	}
	// MPI-FM 2.0 keeps most of FM 2.x's bandwidth at 2 KiB (the paper's own
	// figures are TestPaperClaims').
	if e := pct[LayerMPI][xport.GenFM2]; e < 65 {
		t.Errorf("mpi/fm2 efficiency %.0f%% at 2 KiB, want most of raw FM 2.x", e)
	}
}

// TestLayeringMatrixRendered checks the one-run table contains every
// (layer, binding) combination.
func TestLayeringMatrixRendered(t *testing.T) {
	var sb strings.Builder
	WriteLayeringMatrix(&sb, []int{512}, 80)
	out := sb.String()
	for _, want := range []string{"mpi", "sock", "shmem", "garr", "raw fm1", "raw fm2"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix table missing %q:\n%s", want, out)
		}
	}
}

// TestRawXportMatchesNativeFM2 pins the xport wrapper's cost: streaming
// through the bare window over FM 2.x reads exactly the MB/s of the same
// stream on native FM 2.x, at every StdSizes size. Both are streamFlow, so
// any difference is the wrapper's.
func TestRawXportMatchesNativeFM2(t *testing.T) {
	for _, size := range StdSizes {
		msgs := MsgsFor(size)
		raw := layerBandwidth(LayerXport, xport.GenFM2.Machine(), size, msgs)
		native := FMBandwidth(xport.GenFM2.Machine(), size, msgs)
		if raw != native {
			t.Errorf("%d B: xport raw %.6f MB/s vs native fm2 %.6f MB/s: the wrapper must be free", size, raw, native)
		}
	}
}
