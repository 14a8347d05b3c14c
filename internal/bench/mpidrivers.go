package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// mpiStream is the two-rank, one-flow case of the flow skeleton over MPI:
// rank 0 streams to rank 1.
func mpiStream(pl *cluster.Platform, comms []*mpifm.Comm, size, msgs int, lag sim.Time) float64 {
	return flowBandwidth(pl, "mpi stream", [][2]int{{0, 1}}, mpiFlow(comms, size, msgs, lag), size, msgs)
}

// MPIBandwidth measures streaming MPI bandwidth rank0 -> rank1 at one
// message size: the measurement behind Figures 4a and 6a.
func MPIBandwidth(g xport.Gen, size, msgs int) float64 {
	pl, comms := mpiWorld(g, 2, FabSingle, mpifm.Options{})
	return mpiStream(pl, comms, size, msgs, 0)
}

// MPICurve sweeps MPIBandwidth over sizes.
func MPICurve(g xport.Gen, sizes []int) Curve {
	return sweep(sizes, func(s int) float64 { return MPIBandwidth(g, s, MsgsFor(s)) })
}

// MPILatency measures one-way latency by MPI ping-pong.
func MPILatency(g xport.Gen, size, iters int) sim.Time {
	pl, comms := mpiWorld(g, 2, FabSingle, mpifm.Options{})
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
