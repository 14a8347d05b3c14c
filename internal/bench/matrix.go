package bench

import (
	"fmt"
	"io"

	"repro/internal/xport"
)

// Cross-product layering-efficiency matrix: the Figure 6 measurement
// generalized over every (upper layer × FM binding) pair. Because all four
// upper layers bind only to a HandlerSpace, one driver per layer covers both
// generations — the bare-window baseline itself runs through the same
// interface, so the whole 8-cell matrix plus its two baselines is one code
// path per row (the flow drivers in fabric.go, at two nodes and one flow).

// AllGens lists the matrix columns in generation order. FM 1.x runs through
// the xport staging-copy adapter on the Sparc-era machine (the Figure 4
// configuration), FM 2.x natively on the PPro-era one (Figure 6).
var AllGens = []xport.Gen{xport.GenFM1, xport.GenFM2}

// Layer names one upper layer of the matrix.
type Layer string

// The four upper layers, in the paper's §4.2 order.
const (
	LayerMPI   Layer = "mpi"
	LayerSock  Layer = "sock"
	LayerShmem Layer = "shmem"
	LayerGarr  Layer = "garr"
)

// UpperLayers lists the matrix rows.
var UpperLayers = []Layer{LayerMPI, LayerSock, LayerShmem, LayerGarr}

// RawBandwidth measures native FM streaming bandwidth for one binding: the
// matrix's denominator, exactly as Figures 4 and 6 divide each MPI curve by
// the raw FM curve of the same generation.
func RawBandwidth(g xport.Gen, size, msgs int) float64 {
	return FMBandwidth(DefaultOptions(g), size, msgs)
}

// XportBandwidth measures streaming bandwidth node0 -> node1 through a bare
// service window. Over FM 2.x the wrapper is free, so this matches
// RawBandwidth; over FM 1.x the gap to RawBandwidth prices the staging
// adapter itself — the assembly and delivery copies the 1.x interface
// forces on any streaming client, isolated from every upper layer.
func XportBandwidth(g xport.Gen, size, msgs int) float64 {
	return XportFlowBandwidth(g, FabSingle, 2, size, msgs)
}

// LayerBandwidth measures streaming bandwidth node0 -> node1 through one
// upper layer over one binding: the two-node, one-flow case of
// LayerBisection. size is the per-message payload in bytes (rounded to the
// element width for garr).
func LayerBandwidth(l Layer, g xport.Gen, size, msgs int) float64 {
	return LayerBisection(l, g, FabSingle, 2, size, msgs)
}

// MatrixCell is one (layer, binding) measurement with its efficiency
// relative to the raw transport on the same binding.
type MatrixCell struct {
	Layer   Layer
	Binding xport.Gen
	MBps    float64
	RawMBps float64
	Pct     float64 // 100 * MBps / RawMBps
}

// LayeringMatrix measures all 8 (upper layer × binding) combinations at one
// message size in a single sweep, sharing one raw baseline per binding.
func LayeringMatrix(size, msgs int) []MatrixCell {
	raw := map[xport.Gen]float64{}
	for _, b := range AllGens {
		raw[b] = RawBandwidth(b, size, msgs)
	}
	var cells []MatrixCell
	for _, l := range UpperLayers {
		for _, b := range AllGens {
			mbps := LayerBandwidth(l, b, size, msgs)
			cells = append(cells, MatrixCell{
				Layer: l, Binding: b, MBps: mbps, RawMBps: raw[b],
				Pct: 100 * mbps / raw[b],
			})
		}
	}
	return cells
}

// WriteLayeringMatrix renders the Figure 6-style layering-efficiency table
// for every upper layer over both bindings at each size.
func WriteLayeringMatrix(w io.Writer, sizes []int, msgs int) {
	fmt.Fprintln(w, "Layering-efficiency matrix: every upper layer over every FM binding via xport")
	fmt.Fprintln(w, "(bandwidth in MB/s; % of raw native FM on the same binding; the xport row")
	fmt.Fprintln(w, "prices the 1.x staging adapter itself)")
	for _, size := range sizes {
		cells := LayeringMatrix(size, msgs)
		fmt.Fprintf(w, "  %d B messages: raw fm1 %.2f MB/s, raw fm2 %.2f MB/s\n",
			size, cells[0].RawMBps, cells[1].RawMBps)
		fmt.Fprintf(w, "    %-8s  %12s  %6s  %12s  %6s\n", "layer", "fm1 MB/s", "%", "fm2 MB/s", "%")
		x1, x2 := XportBandwidth(xport.GenFM1, size, msgs), XportBandwidth(xport.GenFM2, size, msgs)
		fmt.Fprintf(w, "    %-8s  %12.2f  %5.0f%%  %12.2f  %5.0f%%\n",
			"xport", x1, 100*x1/cells[0].RawMBps, x2, 100*x2/cells[1].RawMBps)
		for i := 0; i < len(cells); i += 2 {
			c1, c2 := cells[i], cells[i+1]
			fmt.Fprintf(w, "    %-8s  %12.2f  %5.0f%%  %12.2f  %5.0f%%\n",
				c1.Layer, c1.MBps, c1.Pct, c2.MBps, c2.Pct)
		}
	}
}
