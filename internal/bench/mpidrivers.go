package bench

import (
	"repro/internal/cluster"
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
func (g MPIGen) world(n int, f Fabric) (*cluster.Platform, []*mpifm.Comm) {
	return mpiWorld(g.Gen, n, f, 0, mpifm.Options{Unpaced: g.Unpaced})
}

// mpiStream is the two-rank, one-flow case of the flow skeleton over MPI:
// rank 0 streams to rank 1.
func mpiStream(pl *cluster.Platform, comms []*mpifm.Comm, size, msgs int, lag sim.Time) float64 {
	return flowBandwidth(pl, "mpi stream", [][2]int{{0, 1}}, mpiFlow(comms, size, msgs, lag), size, msgs)
}

// MPIBandwidth measures streaming MPI bandwidth rank0 -> rank1 at one
// message size: the measurement behind Figures 4a and 6a.
func MPIBandwidth(g MPIGen, size, msgs int) float64 {
	pl, comms := g.world(2, FabSingle)
	return mpiStream(pl, comms, size, msgs, 0)
}

// MPICurve sweeps MPIBandwidth over sizes.
func MPICurve(g MPIGen, sizes []int) Curve {
	return sweep(sizes, func(s int) float64 { return MPIBandwidth(g, s, MsgsFor(s)) })
}

// MPILatency measures one-way latency by MPI ping-pong.
func MPILatency(g MPIGen, size, iters int) sim.Time {
	pl, comms := g.world(2, FabSingle)
	var rtt sim.Time
	pl.K.Spawn("rank0", func(p *sim.Proc) {
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
	pl.K.Spawn("rank1", func(p *sim.Proc) {
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
	run(pl, "mpi latency")
	return rtt / 2
}
