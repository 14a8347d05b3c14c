// Package bench provides the measurement harness for reproducing the
// paper's evaluation: streaming bandwidth drivers, ping-pong latency
// drivers, N1/2 (half-power message size) computation, and table rendering
// in the shape of the paper's figures.
//
// A measurement is a world, a traffic shape and a clock, each written once.
// world.go builds the world from an xport.Machine (platform, endpoints,
// mpiWorld): every driver takes the Machine it measures, a generation's
// Gen.Machine() or one with fields varied, as the staged engines of Figure
// 3a and the ablation sweeps do. Raw FM runs through FMStream, FMBandwidth
// and FMLatency over the fmNode adapter (send, extract, deliver). Above raw FM, flowBandwidth is the one flow skeleton: the
// bare window and every upper layer (xportFlow, mpiFlow, sockFlow, shmemFlow,
// garrFlow) supply two procs each. spawnCollective is the one timed
// collective, under CollectiveTimeOn and PerfCollective. span is the virtual
// clock, hostCost the host one. A new measurement is a caller of one of
// these, not a copy, and a variant is a table row: AllCollectives,
// AllLayers (the bare xport window first), mixedWorkloads, svcWorkloads.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Point is one (message size, bandwidth) sample.
type Point struct {
	Size int
	MBps float64
}

// Curve is a bandwidth-vs-size series, ordered by size.
type Curve []Point

// Peak reports the maximum bandwidth on the curve.
func (c Curve) Peak() float64 {
	p := 0.0
	for _, pt := range c {
		if pt.MBps > p {
			p = pt.MBps
		}
	}
	return p
}

// At reports the bandwidth at exactly the given size (0 if absent).
func (c Curve) At(size int) float64 {
	for _, pt := range c {
		if pt.Size == size {
			return pt.MBps
		}
	}
	return 0
}

// NHalf reports the half-power message size N1/2: the size at which the
// curve reaches half its peak bandwidth, interpolating linearly between
// samples. It returns 0 if the first sample is already above half peak and
// -1 if the curve never reaches half peak.
func (c Curve) NHalf() int {
	if len(c) == 0 {
		return -1
	}
	sorted := append(Curve(nil), c...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Size < sorted[j].Size })
	half := sorted.Peak() / 2
	if sorted[0].MBps >= half {
		return 0
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].MBps >= half {
			lo, hi := sorted[i-1], sorted[i]
			frac := (half - lo.MBps) / (hi.MBps - lo.MBps)
			return lo.Size + int(frac*float64(hi.Size-lo.Size))
		}
	}
	return -1
}

// Efficiency returns, per size, 100 * num/den — the paper's "% Efficiency"
// panels (Figures 4b, 6b). Sizes present in num but not den are skipped.
func Efficiency(num, den Curve) Curve {
	out := Curve{}
	for _, n := range num {
		d := den.At(n.Size)
		if d > 0 {
			out = append(out, Point{n.Size, 100 * n.MBps / d})
		}
	}
	return out
}

// StdSizes is the message-size sweep used by the paper's bandwidth figures.
var StdSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048}

// ShortSizes is the sweep of Figure 3 (FM 1.x, 16-512 bytes): a prefix of
// StdSizes, so Figure 3b is a prefix of the measured FM 1.x curve.
var ShortSizes = StdSizes[:6:6]

// MsgsFor picks a message count for a streaming test: enough bytes to
// amortize pipeline fill, bounded to keep simulations fast.
func MsgsFor(size int) int {
	const targetBytes = 1 << 19
	n := targetBytes / size
	if n < 200 {
		n = 200
	}
	if n > 8000 {
		n = 8000
	}
	return n
}

// WriteCurve renders a curve as an aligned two-column table.
func WriteCurve(w io.Writer, title, unit string, c Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %8s  %12s\n", "Msg Size", unit)
	for _, pt := range c {
		fmt.Fprintf(w, "  %8d  %12.2f\n", pt.Size, pt.MBps)
	}
}

// WriteSeries renders several curves side by side over a shared size sweep.
func WriteSeries(w io.Writer, title string, names []string, curves []Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %8s", "Msg Size")
	for _, n := range names {
		fmt.Fprintf(w, "  %12s", n)
	}
	fmt.Fprintln(w)
	if len(curves) == 0 || len(curves[0]) == 0 {
		return
	}
	for i := range curves[0] {
		fmt.Fprintf(w, "  %8d", curves[0][i].Size)
		for _, c := range curves {
			if i < len(c) {
				fmt.Fprintf(w, "  %12.2f", c[i].MBps)
			} else {
				fmt.Fprintf(w, "  %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
