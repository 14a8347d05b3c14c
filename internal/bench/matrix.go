package bench

import (
	"fmt"
	"io"

	"repro/internal/mpifm"
	"repro/internal/xport"
)

// Cross-product layering-efficiency matrix: the Figure 6 measurement
// generalized over every (upper layer × FM binding) pair. Because all four
// upper layers bind only to a HandlerSpace, one driver per layer covers both
// generations — the bare-window baseline itself runs through the same
// interface, and the whole matrix, its two raw-FM baselines included, runs
// on the flow skeleton at two nodes and one flow: the window row and the
// baselines are one driver, streamFlow, over the window or native FM.

// AllGens lists the matrix columns in generation order. FM 1.x runs through
// the xport staging-copy adapter on the Sparc-era machine (the Figure 4
// configuration), FM 2.x natively on the PPro-era one (Figure 6).
var AllGens = []xport.Gen{xport.GenFM1, xport.GenFM2}

// Layer is one client of the endpoints the flow skeleton can stream through:
// an upper layer, or the bare service window under them all.
type Layer = *layer

type layer struct {
	name string
	// elem is the payload granularity in bytes: a message is rounded down to
	// whole elements (global arrays move float64s; everything else bytes).
	elem int
	// flows attaches the layer to the endpoints and returns what it
	// contributes to the skeleton: the two procs of one flow moving msgs
	// messages of size bytes by the layer's own primitives.
	flows func(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc
}

func (l *layer) String() string { return l.name }

// The bare window, then the four upper layers in the paper's §4.2 order.
var (
	LayerXport = &layer{"xport", 1, func(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc {
		return streamFlow(windowNodes(eps), uniform(size, msgs))
	}}
	LayerMPI = &layer{"mpi", 1, func(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc {
		return mpiFlow(attachMPI(eps, mpifm.Options{}), size, msgs, 0)
	}}
	LayerSock  = &layer{"sock", 1, sockFlow}
	LayerShmem = &layer{"shmem", 1, shmemFlow}
	LayerGarr  = &layer{"garr", 8, garrFlow}
)

// AllLayers is the table.
var AllLayers = []Layer{LayerXport, LayerMPI, LayerSock, LayerShmem, LayerGarr}

// layerBandwidth measures streaming bandwidth node0 -> node1 through one
// layer over one binding: the two-node, one-flow case of LayerBisection.
// size is the per-message payload in bytes (rounded to the element width for
// garr). Through the bare window over FM 2.x the wrapper is free, so it
// equals FMBandwidth, the same streamFlow on native FM 2.x; over FM 1.x the
// gap to FMBandwidth prices the staging adapter itself — the assembly and
// delivery copies the 1.x interface forces on any streaming client,
// isolated from every upper layer.
func layerBandwidth(l Layer, m xport.Machine, size, msgs int) float64 {
	return LayerBisection(l, m, FabSingle, 2, size, msgs)
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

// LayeringMatrix measures every (layer × binding) combination at one message
// size in a single sweep, the bare window's row first, sharing one raw
// baseline per binding: native FM's FMBandwidth, exactly as Figures 4 and 6
// divide each MPI curve by the raw FM curve of the same generation.
func LayeringMatrix(size, msgs int) []MatrixCell {
	raw := map[xport.Gen]float64{}
	for _, b := range AllGens {
		raw[b] = FMBandwidth(b.Machine(), size, msgs)
	}
	var cells []MatrixCell
	for _, l := range AllLayers {
		for _, b := range AllGens {
			mbps := layerBandwidth(l, b.Machine(), size, msgs)
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
		for i := 0; i < len(cells); i += 2 {
			c1, c2 := cells[i], cells[i+1]
			fmt.Fprintf(w, "    %-8s  %12.2f  %5.0f%%  %12.2f  %5.0f%%\n",
				c1.Layer, c1.MBps, c1.Pct, c2.MBps, c2.Pct)
		}
	}
}
