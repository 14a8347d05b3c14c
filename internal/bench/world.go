package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// A measurement is a world, a traffic shape and a clock. This file is the
// world — the one way a driver of this package gets an assembled machine —
// and the virtual clock every driver reads its result
// from. The traffic shapes are the flow skeleton (fabric.go) with its raw
// stream, the ping-pong (fmdrivers.go) and the timed collective
// (collectives.go); the host-side clock is in perf.go.

// platform assembles machine m at n nodes on fabric f.
func platform(m xport.Machine, n int, f Fabric) *cluster.Platform {
	pl, err := cluster.Assemble(m.Config(n, f))
	if err != nil {
		panic(fmt.Sprintf("bench: %s, %d nodes on %s: %v", m.Gen, n, f, err))
	}
	return pl
}

// endpoints is platform plus one shared endpoint per node. Every driver
// above raw FM builds its stack through here and then registers its
// services on the endpoints.
func endpoints(m xport.Machine, n int, f Fabric) (*cluster.Platform, []*xport.Endpoint) {
	pl := platform(m, n, f)
	return pl, xport.AttachEndpoints(pl, m)
}

// attachMPI registers the MPI service on every endpoint, at the MPI costs
// of the machine the endpoints were built on (every host carries its
// machine's profile).
func attachMPI(eps []*xport.Endpoint, opt mpifm.Options) []*mpifm.Comm {
	sp := xport.Spaces(eps, mpifm.Service)
	return mpifm.Attach(sp, sp[0].Core().Host().P.MPI, opt)
}

// mpiWorld is endpoints plus an n-rank MPI world on them.
func mpiWorld(m xport.Machine, n int, f Fabric, opt mpifm.Options) (*cluster.Platform, []*mpifm.Comm) {
	pl, eps := endpoints(m, n, f)
	return pl, attachMPI(eps, opt)
}

// run drives the world to completion. A failed run (deadlock, handler
// panic) is a harness bug, not a result, so it panics naming the
// measurement.
func run(pl *cluster.Platform, what string, args ...any) {
	if err := pl.Run(); err != nil {
		panic(fmt.Sprintf("bench: "+what+": %v", append(args, err)...))
	}
}

// stamp is one participant's measured interval in virtual time.
type stamp struct{ start, end sim.Time }

// span reduces the participants' stamps to the measurement's interval: the
// earliest start to the latest end.
func span(stamps []stamp) sim.Time {
	start, end := stamps[0].start, stamps[0].end
	for _, s := range stamps[1:] {
		if s.start < start {
			start = s.start
		}
		if s.end > end {
			end = s.end
		}
	}
	return end - start
}
