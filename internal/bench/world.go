package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// A measurement is a world, a traffic shape and a clock. This file is the
// world — the one way a driver of this package gets an assembled machine —
// and the virtual clock every driver reads its result
// from. The traffic shapes are the raw-FM stream and ping-pong
// (fmdrivers.go), the flow skeleton (fabric.go) and the timed collective
// (collectives.go); the host-side clock is in perf.go.

// platform assembles the n-node machine of generation g on fabric f after
// edit (nil = none) has adjusted the prepared config.
func platform(g xport.Gen, n int, f Fabric, edit func(*cluster.Config)) *cluster.Platform {
	cfg := g.ClusterConfig(n, f)
	if edit != nil {
		edit(&cfg)
	}
	pl, err := cluster.Assemble(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %s, %d nodes on %s: %v", g, n, f, err))
	}
	return pl
}

// endpoints is platform plus one shared endpoint per node. Every driver
// above raw FM builds its stack through here and then registers its
// services on the endpoints.
func endpoints(g xport.Gen, n int, f Fabric) (*cluster.Platform, []*xport.Endpoint) {
	pl := platform(g, n, f, nil)
	return pl, xport.AttachEndpoints(pl, xport.EndpointConfig{Gen: g})
}

// attachMPI registers the MPI service on every endpoint, with the
// generation's overheads.
func attachMPI(eps []*xport.Endpoint, g xport.Gen, opt mpifm.Options) []*mpifm.Comm {
	return mpifm.Attach(xport.Spaces(eps, mpifm.Service), mpifm.OverheadsFor(g), opt)
}

// mpiWorld is endpoints plus an n-rank MPI world on them.
func mpiWorld(g xport.Gen, n int, f Fabric, opt mpifm.Options) (*cluster.Platform, []*mpifm.Comm) {
	pl, eps := endpoints(g, n, f)
	return pl, attachMPI(eps, g, opt)
}

// Options configures the two-node machine under the raw-FM drivers: the
// generation with its engine config, and the host and NIC models the
// staged-engine figure and the ablation sweeps turn knobs on.
type Options struct {
	Profile hostmodel.Profile
	FM      xport.EndpointConfig
	NIC     lanai.Config
}

// DefaultOptions is generation g's full engine on the machine it ran on:
// FM 1.x on the Sparc-era hosts, FM 2.x on the PPro-era ones.
func DefaultOptions(g xport.Gen) Options {
	return Options{Profile: g.Profile(), FM: xport.EndpointConfig{Gen: g}, NIC: lanai.DefaultConfig()}
}

func (o Options) platform() *cluster.Platform {
	return platform(o.FM.Gen, 2, FabSingle, func(cfg *cluster.Config) {
		cfg.Profile, cfg.NIC = o.Profile, o.NIC
	})
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
