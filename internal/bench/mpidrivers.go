package bench

import (
	"fmt"

	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// MPIGen selects which MPI-FM binding a driver runs: an FM generation
// (which fixes the machine and the MPI overheads) plus the one thing a
// generation cannot say, the receiver-pacing ablation.
type MPIGen struct {
	Gen     xport.Gen
	Unpaced bool
}

var (
	// MPI1 is MPI over FM 1.x on the Sparc machine (Figure 4).
	MPI1 = MPIGen{Gen: xport.GenFM1}
	// MPI2 is MPI-FM 2.0 over FM 2.x on the PPro machine (Figure 6).
	MPI2 = MPIGen{Gen: xport.GenFM2}
	// MPI2Unpaced is MPI over FM 2.x with receiver flow control unused
	// (ablation: Extract drains everything, re-creating pool traffic).
	MPI2Unpaced = MPIGen{Gen: xport.GenFM2, Unpaced: true}
)

// world builds an n-rank MPI world for this binding on fabric f.
func (g MPIGen) world(n int, f Fabric) (*sim.Kernel, []*mpifm.Comm) {
	return mpiWorld(g.Gen, n, f, mpifm.Options{Unpaced: g.Unpaced})
}

// MPIBandwidth measures streaming MPI bandwidth rank0 -> rank1 at one
// message size: the measurement behind Figures 4a and 6a. The receiver
// posts each receive then waits, the standard MPI bandwidth-test loop.
func MPIBandwidth(g MPIGen, size, msgs int) float64 {
	k, comms := g.world(2, FabSingle)
	return runMPIStream(k, comms, size, msgs)
}

// MPICurve sweeps MPIBandwidth over sizes.
func MPICurve(g MPIGen, sizes []int) Curve {
	c := Curve{}
	for _, s := range sizes {
		c = append(c, Point{s, MPIBandwidth(g, s, MsgsFor(s))})
	}
	return c
}

// MPILatency measures one-way latency by MPI ping-pong.
func MPILatency(g MPIGen, size, iters int) sim.Time {
	k, comms := g.world(2, FabSingle)
	var rtt sim.Time
	k.Spawn("rank0", func(p *sim.Proc) {
		msg := make([]byte, size)
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := comms[0].Send(p, msg, 1, 1); err != nil {
				panic(err)
			}
			if _, err := comms[0].Recv(p, buf, 1, 1); err != nil {
				panic(err)
			}
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		msg := make([]byte, size)
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			if _, err := comms[1].Recv(p, buf, 0, 1); err != nil {
				panic(err)
			}
			if err := comms[1].Send(p, msg, 0, 1); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: mpi latency: %v", err))
	}
	return rtt / 2
}
