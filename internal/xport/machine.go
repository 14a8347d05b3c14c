package xport

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
)

// Gen names a Fast Messages generation.
type Gen int

const (
	// GenFM2 is native FM 2.x (the default zero-value choice is invalid so
	// misconfiguration fails loudly).
	GenFM2 Gen = iota + 1
	// GenFM1 is FM 1.x through the staging-copy adapter.
	GenFM1
)

// String names the generation for reports.
func (g Gen) String() string {
	switch g {
	case GenFM1:
		return "fm1"
	case GenFM2:
		return "fm2"
	}
	return fmt.Sprintf("gen(%d)", int(g))
}

// Machine is the whole machine a platform is built as: the FM generation,
// the host cost table (MPI's costs included), the NIC firmware and FM 1.x's
// stage switches (FM 2.x has one configuration). Only the engine of Gen is
// attached; FM1 rides along unused on GenFM2.
type Machine struct {
	Gen     Gen
	Profile hostmodel.Profile
	NIC     lanai.Config
	FM1     fm1.Config
}

// Machine is the machine generation g ran on, with its full engine: FM 1.x
// on the Sparc-era hosts, FM 2.x on the 200 MHz PPro ones. It is the one
// place a generation's defaults are chosen.
func (g Gen) Machine() Machine {
	p := hostmodel.PPro200()
	if g == GenFM1 {
		p = hostmodel.Sparc()
	}
	return Machine{Gen: g, Profile: p}
}

// Config is m at n nodes on topology t, with the fabric auto-shaped: the
// cluster.Config both assemblers (fmnet.New, internal/bench's world builder)
// start from.
func (m Machine) Config(n int, t cluster.Topology) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.Topology, cfg.Profile, cfg.NIC = n, t, m.Profile, m.NIC
	cfg.AutoShape()
	return cfg
}

// AttachEndpoints builds ONE shared endpoint per node of the platform, on
// m's engine: the assembly step every node goes through. Callers then
// register the same services in the same order on every endpoint (Spaces).
func AttachEndpoints(pl *cluster.Platform, m Machine) []*Endpoint {
	eps := make([]*Endpoint, pl.Nodes())
	switch m.Gen {
	case GenFM1:
		for i, ep := range fm1.Attach(pl, m.FM1) {
			eps[i] = NewEndpoint(OverFM1(ep))
		}
	case GenFM2:
		for i, ep := range fm2.Attach(pl, fm2.Config{}) {
			eps[i] = NewEndpoint(OverFM2(ep))
		}
	default:
		panic(fmt.Sprintf("xport: unknown FM generation %d", m.Gen))
	}
	return eps
}
