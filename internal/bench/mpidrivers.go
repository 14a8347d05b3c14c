package bench

import (
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// mpiCurve sweeps streaming MPI bandwidth rank0 -> rank1 over sizes, the
// measurement behind Figures 4a and 6a: layerBandwidth through LayerMPI.
func mpiCurve(m xport.Machine, sizes []int) Curve {
	return sweep(sizes, func(s int) float64 { return layerBandwidth(LayerMPI, m, s, MsgsFor(s)) })
}

// MPILatency measures one-way latency by MPI ping-pong: each side's
// receive is a blocking MPI_Recv.
func MPILatency(m xport.Machine, size, iters int) sim.Time {
	pl, comms := mpiWorld(m, 2, FabSingle, mpifm.Options{})
	var ends [2]pinger
	for i, c := range comms {
		msg, buf := make([]byte, size), make([]byte, size)
		ends[i] = pinger{
			send: func(p *sim.Proc) {
				if err := c.Send(p, msg, 1-i, 1); err != nil {
					panic(err)
				}
			},
			recv: func(p *sim.Proc) {
				if _, err := c.Recv(p, buf, 1-i, 1); err != nil {
					panic(err)
				}
			},
		}
	}
	return pingPong(pl, "mpi", ends, iters)
}
