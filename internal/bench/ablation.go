package bench

import (
	"fmt"

	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Ablation drivers: price each FM 2.x design choice (DESIGN.md §5) by
// turning it off and re-running the Figure 6 bandwidth measurement.

// MPI2AblationBandwidth measures streaming MPI-FM 2.0 bandwidth with the
// given service selection.
func MPI2AblationBandwidth(opt mpifm.Options, size, msgs int) float64 {
	mbps, _ := MPI2AblationProfile(opt, size, msgs)
	return mbps
}

// MPI2AblationProfile measures the same stream and also returns the
// receiver's MPI-layer stats: Direct vs Unexpected is the copy-count story
// the pacing ablation turns on and off.
func MPI2AblationProfile(opt mpifm.Options, size, msgs int) (float64, mpifm.Stats) {
	k, comms := mpiWorld(xport.GenFM2, 2, FabSingle, opt)
	mbps := runMPIStream(k, comms, size, msgs)
	return mbps, comms[1].Stats()
}

// MPI2AblationOverrun replays the pacing story with a BUSY receiver: rank 1
// computes for lag between receives while rank 0 streams, so arrivals back
// up in the NIC ring. Paced extraction pulls only what the posted receive
// asked for and leaves the backlog on the NIC; unpaced extraction drains
// the backlog into the unexpected pool — a staging copy per message, the
// host-side cost receiver flow control exists to avoid (paper §4.2).
func MPI2AblationOverrun(opt mpifm.Options, size, msgs int, lag sim.Time) (float64, mpifm.Stats) {
	k, comms := mpiWorld(xport.GenFM2, 2, FabSingle, opt)
	var start, end sim.Time
	k.Spawn("rank0", func(p *sim.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := comms[0].Send(p, msg, 1, 1); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		buf := make([]byte, size)
		for i := 0; i < msgs; i++ {
			p.Delay(lag) // the application computing, not progressing MPI
			if _, err := comms[1].Recv(p, buf, 0, 1); err != nil {
				panic(err)
			}
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: ablation overrun stream: %v", err))
	}
	return Elapsed(int64(size)*int64(msgs), end-start), comms[1].Stats()
}

// runMPIStream is the streaming-bandwidth body shared with MPIBandwidth:
// the receiver posts each receive then waits, the standard MPI
// bandwidth-test loop.
func runMPIStream(k *sim.Kernel, comms []*mpifm.Comm, size, msgs int) float64 {
	var start, end sim.Time
	k.Spawn("rank0", func(p *sim.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := comms[0].Send(p, msg, 1, 1); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		buf := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if _, err := comms[1].Recv(p, buf, 0, 1); err != nil {
				panic(err)
			}
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: mpi stream size %d: %v", size, err))
	}
	return Elapsed(int64(size)*int64(msgs), end-start)
}

// PacketSizeSweep measures FM 2.x bandwidth and N1/2 across packet MTUs:
// the packetization design-point ablation.
func PacketSizeSweep(mtus []int, sizes []int) map[int]Curve {
	out := make(map[int]Curve)
	for _, mtu := range mtus {
		o := DefaultFM2Options()
		o.Profile.PacketMTU = mtu
		out[mtu] = FM2Curve(o, sizes)
	}
	return out
}

// CreditWindowSweep measures FM 2.x peak bandwidth across flow-control
// window sizes: too small a window throttles the pipeline.
func CreditWindowSweep(windows []int, size int) Curve {
	c := Curve{}
	for _, w := range windows {
		o := DefaultFM2Options()
		o.Profile.CreditWindow = w
		c = append(c, Point{w, FM2Bandwidth(o, size, MsgsFor(size))})
	}
	return c
}
