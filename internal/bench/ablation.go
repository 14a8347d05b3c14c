package bench

import (
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Ablation drivers: price each FM 2.x design choice (DESIGN.md §5) by
// turning it off and re-running the Figure 6 bandwidth measurement.

// MPI2AblationBandwidth measures streaming MPI-FM 2.0 bandwidth with the
// given service selection.
func MPI2AblationBandwidth(opt mpifm.Options, size, msgs int) float64 {
	mbps, _ := MPI2AblationOverrun(opt, size, msgs, 0)
	return mbps
}

// MPI2AblationOverrun replays the pacing story with a BUSY receiver: rank 1
// computes for lag between receives while rank 0 streams, so arrivals back
// up in the NIC ring. It also returns the receiver's MPI-layer stats —
// Direct vs Unexpected is the copy-count story pacing turns on and off. Paced extraction pulls only what the posted receive
// asked for and leaves the backlog on the NIC; unpaced extraction drains
// the backlog into the unexpected pool — a staging copy per message, the
// host-side cost receiver flow control exists to avoid (§4.2).
func MPI2AblationOverrun(opt mpifm.Options, size, msgs int, lag sim.Time) (float64, mpifm.Stats) {
	pl, comms := mpiWorld(xport.GenFM2.Machine(), 2, FabSingle, opt)
	mbps := flowBandwidth(pl, "mpi stream", [][2]int{{0, 1}}, mpiFlow(comms, size, msgs, lag), int64(size)*int64(msgs))
	return mbps, comms[1].Stats()
}

// PacketSizeSweep measures FM 2.x bandwidth and N1/2 across packet MTUs:
// the packetization design-point ablation.
func PacketSizeSweep(mtus []int, sizes []int) map[int]Curve {
	out := make(map[int]Curve)
	for _, mtu := range mtus {
		m := xport.GenFM2.Machine()
		m.Profile.PacketMTU = mtu
		out[mtu] = FMCurve(m, sizes)
	}
	return out
}

// CreditWindowSweep measures FM 2.x peak bandwidth across flow-control
// window sizes: too small a window throttles the pipeline.
func CreditWindowSweep(windows []int, size int) Curve {
	return sweep(windows, func(w int) float64 {
		m := xport.GenFM2.Machine()
		m.Profile.CreditWindow = w
		return FMBandwidth(m, size, MsgsFor(size))
	})
}
