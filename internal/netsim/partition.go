// Fabric partitioning for the parallel engine.
//
// A fat tree splits naturally along its trunk links: each LP owns a
// contiguous block of edge switches together with their hosts (NICs,
// endpoints, and everything above them follow the host's kernel), spine
// switches are dealt round-robin across LPs, and the only wires crossing
// the cut are edge<->spine trunks. Trunk propagation delay is physical,
// positive, and known at build time — it IS the engine's lookahead.
//
// A cut trunk is a portal link (see Link.Send): the transmitting side
// charges serialization and propagation on its own clock, evaluates the
// link's fault state at the exact arrival instant, and posts the frame
// across the LP boundary; an injector daemon on the receiving side places
// it in the downstream port queue at that instant. Every timing, fault
// draw, and route byte matches the fused fabric exactly — with one
// irreducible exception: reverse back-pressure. In the fused fabric a full
// downstream queue stalls the transmitter instantly (zero lookahead against
// the direction of travel), which no conservative parallel scheme can
// reproduce exactly. Instead the injector detects every arrival that finds
// its queue full, and the CutMonitor turns that into a per-run certificate:
// a run with zero cut stalls provably executed the identical virtual-time
// trajectory the sequential engine would have produced; a run with stalls
// completed correctly (frames delivered in order when space freed) but its
// timing may differ from sequential where the congestion occurred.
package netsim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// portalStageCap bounds the staging channel between a portal and its
// injector daemon. It only buffers while the downstream port queue is full,
// so depth is bounded by frames in flight on one wire's worth of cut; the
// ring grows on demand, so an unused deep bound costs nothing.
const portalStageCap = 1 << 20

// FatTreePartition maps fat-tree elements onto `Parts` logical processes:
// contiguous edge-subtree blocks, spines round-robin.
type FatTreePartition struct {
	Edges, Hosts, Spines int
	Parts                int
}

// Validate checks the partition shape against the fabric shape.
func (fp FatTreePartition) Validate() error {
	if fp.Parts < 2 {
		return fmt.Errorf("netsim: partitioning needs >=2 parts, have %d", fp.Parts)
	}
	if fp.Edges < fp.Parts {
		return fmt.Errorf("netsim: %d parts exceed %d edge switches", fp.Parts, fp.Edges)
	}
	if fp.Edges%fp.Parts != 0 {
		return fmt.Errorf("netsim: %d edge switches do not split evenly into %d parts", fp.Edges, fp.Parts)
	}
	return nil
}

// EdgeLP reports the LP owning edge switch e.
func (fp FatTreePartition) EdgeLP(e int) int { return e / (fp.Edges / fp.Parts) }

// SpineLP reports the LP owning spine switch s.
func (fp FatTreePartition) SpineLP(s int) int { return s % fp.Parts }

// CutMonitor counts cross-partition back-pressure events: arrivals at a cut
// injector that found the downstream port queue full. Incremented from
// multiple LP goroutines, hence atomic.
type CutMonitor struct {
	stalls atomic.Int64
}

// Stalls reports the number of cut arrivals that hit a full queue.
func (m *CutMonitor) Stalls() int64 { return m.stalls.Load() }

// CutStalls reports cross-partition back-pressure events (0 for a
// sequential fabric).
func (n *Network) CutStalls() int64 { return n.cut.Stalls() }

// Certified reports whether this run's virtual-time results are exactly the
// sequential engine's: trivially true for a fused fabric, and true for a
// partitioned one iff no cut arrival ever found its downstream queue full
// (see the package comment on partitioning for why that is the one case
// conservative parallel execution cannot reproduce exactly).
func (n *Network) Certified() bool { return n.cut.Stalls() == 0 }

// crossLPs turns l — built by NewLink in srcLP, where the wire (xmit
// resource, fault state) stays — into a cut trunk: arrivals materialize in
// dstLP through a portal whose lookahead is the link's propagation delay, and
// an injector daemon performs the downstream delivery, preserving per-wire
// FIFO.
func (l *Link) crossLPs(mon *CutMonitor, srcLP, dstLP *sim.LP) {
	name, dst := l.name, l.dst
	stage := sim.NewChan[*Packet](dstLP.K, portalStageCap)
	l.portal = sim.NewPortal(name, srcLP, dstLP, l.cfg.PropDelay, func(_ sim.Time, pkt *Packet) {
		if !stage.TrySend(pkt) {
			panic(fmt.Sprintf("netsim: portal %s staging overflow", name))
		}
	})
	dstLP.K.SpawnDaemon("inject:"+name, func(p *sim.Proc) {
		for {
			pkt := stage.Recv(p)
			if !dst.TrySend(pkt) {
				// Cross-partition back-pressure: the one effect a portal
				// cannot carry backwards. Deliver late (when space frees,
				// FIFO preserved) and void the run's exactness certificate.
				mon.stalls.Add(1)
				dst.Send(p, pkt)
			}
		}
	}).ActsFor(sim.Fabric)
}

// NewFatTreePar builds NewFatTree's fabric on the LPs of a parallel engine
// (one LP per partition, len(lps) == fp.Parts): the same wiring, with each
// switch on the LP fp assigns it. Link names, switch names, routes, and
// per-link fault RNG streams are identical to the fused fabric — fault
// schedules stay decorrelated per link and keyed only by link name,
// regardless of partition shape.
func NewFatTreePar(lps []*sim.LP, fp FatTreePartition, cfg LinkConfig, routeDelay sim.Time) *Network {
	if err := fp.Validate(); err != nil {
		panic(err.Error())
	}
	if len(lps) != fp.Parts {
		panic(fmt.Sprintf("netsim: partition wants %d LPs, given %d", fp.Parts, len(lps)))
	}
	if cfg.PropDelay < sim.Nanosecond {
		panic("netsim: partitioned fabric needs PropDelay >= 1ns (the trunk delay is the engine lookahead)")
	}
	ks := make([]*sim.Kernel, len(lps))
	for i, lp := range lps {
		ks[i] = lp.K
	}
	n := Shape{Topology: FatTree, Nodes: fp.Edges * fp.Hosts, Hosts: fp.Hosts, Spines: fp.Spines}.build(ks, lps, cfg, routeDelay)
	n.desc += fmt.Sprintf(", %d partitions", fp.Parts)
	return n
}
