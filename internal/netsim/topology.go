package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Iface is a node's attachment point to the fabric: an input queue the NIC
// drains and an egress link the NIC transmits on. The owning Network
// computes the source route when a packet is injected.
type Iface struct {
	ID  int
	In  *sim.Chan[*Packet]
	net *Network
	out *Link
	seq uint64
}

// Send injects a packet toward pkt.Dst, attaching the source route.
//
// Self-addressed packets are rejected at injection: Route(i, i) does not
// exist, so such a packet would enter the fabric with an empty route and be
// misdelivered (DirectPair) or panic at the first switch with a misleading
// "route exhausted" diagnostic. Loopback traffic must stay in the host
// (the transports model self-sends as host memcpys that never touch the
// NIC); a self-addressed packet reaching the wire is a protocol-layer bug.
func (ifc *Iface) Send(p *sim.Proc, pkt *Packet) {
	tx := ifc.StartSend(pkt)
	for !tx.Step(p) { // a park wherever the frame waits
		p.Park()
	}
}

// StartSend is Send's first half, for a caller that cannot block (the NIC's
// send firmware): it stamps pkt with its source route and sequence number
// and returns its passage over the egress link, not yet
// begun, for the caller to Step.
func (ifc *Iface) StartSend(pkt *Packet) Tx {
	if pkt.Dst == ifc.ID {
		panic(fmt.Sprintf("netsim: node %d injected a self-addressed packet: loopback must stay in the host, never enter the fabric", ifc.ID))
	}
	if pkt.Dst < 0 || pkt.Dst >= ifc.net.Nodes() {
		panic(fmt.Sprintf("netsim: node %d injected a packet for nonexistent node %d (fabric has %d nodes)", ifc.ID, pkt.Dst, ifc.net.Nodes()))
	}
	pkt.Src = ifc.ID
	pkt.Route = ifc.net.appendRoute(pkt.hops[:0], ifc.ID, pkt.Dst)
	pkt.Seq = ifc.seq
	ifc.seq++
	return Tx{l: ifc.out, pkt: pkt}
}

// egressStats reports this node's injection-link counters.
func (ifc *Iface) egressStats() LinkStats { return ifc.out.Stats() }

// Network is an assembled fabric. It stores no routes: a source route is a
// pure function of (src, dst) and the resolved shape, computed at injection.
type Network struct {
	K        *sim.Kernel
	shape    Shape
	ifaces   []*Iface
	switches []*Switch // in creation order, which is Start order
	links    []*Link
	desc     string

	lost map[lostKey]int64 // per-flow lost-frame registry (see faults.go)
}

// Nodes reports the number of attached nodes.
func (n *Network) Nodes() int { return len(n.ifaces) }

// Iface returns node i's interface.
func (n *Network) Iface(i int) *Iface { return n.ifaces[i] }

// Route returns the source route from src to dst as a fresh slice (nil for
// src == dst): the diagnostic view of what Iface.Send writes into a packet.
func (n *Network) Route(src, dst int) []uint8 {
	if src == dst {
		return nil
	}
	return n.appendRoute(nil, src, dst)
}

// Links returns all links for stats inspection.
func (n *Network) Links() []*Link { return n.links }

// Deprecated: one kernel runs the whole fabric, so no link crosses a
// partition: always 0. Kept for benchmark/allreduce.go.
func (n *Network) CutStalls() int64 { return 0 }

// Deprecated: one kernel runs the whole fabric: always true. Kept for
// benchmark/allreduce.go.
func (n *Network) Certified() bool { return true }

// Describe reports the topology in human-readable form.
func (n *Network) Describe() string { return n.desc }

// Topology selects how nodes are wired.
type Topology int

const (
	// DirectPair wires exactly two nodes back to back (microbenchmarks).
	DirectPair Topology = iota
	// SingleSwitch hangs all nodes off one crossbar (the usual cluster).
	SingleSwitch
	// Line chains switches with Hosts nodes each (multi-hop experiments;
	// the worst-case bisection of one trunk link).
	Line
	// FatTree is a 2-level Clos: edge switches with Hosts nodes each,
	// Spines spine switches, every edge wired to every spine.
	FatTree
	// Torus2D is a wraparound mesh of switches with Hosts nodes each,
	// routed dimension-order with dateline virtual channels.
	Torus2D
)

// topologies is the one table a topology is added to: the name reports
// print and scenario files spell, the default hosts per switch (0: no
// switches to spread hosts over) and the fewest switches it makes sense on,
// and the two functions that ARE the topology (fabric.go) — wire, its
// switches and wires in model order, and route, the closed-form source route
// over the port map wire lays down. Rules no other topology shares are its
// case in Shape.Resolve.
var topologies = [...]struct {
	name               string
	hosts, minSwitches int
	wire               func(b *builder, s Shape)
	route              func(s *Shape, buf []uint8, src, dst int) []uint8
}{
	DirectPair:   {"pair", 0, 0, wirePair, routePair},
	SingleSwitch: {"single", 0, 0, wireSingle, routeSingle},
	Line:         {"line", 2, 1, wireLine, routeLine},
	FatTree:      {"fattree", 4, 2, wireFatTree, routeFatTree},
	Torus2D:      {"torus", 4, 2, wireTorus, routeTorus},
}

func (t Topology) known() bool { return t >= 0 && int(t) < len(topologies) }

// String names the topology for reports.
func (t Topology) String() string {
	if !t.known() {
		return fmt.Sprintf("topology(%d)", int(t))
	}
	return topologies[t].name
}

// ParseTopology is String's inverse.
func ParseTopology(name string) (Topology, error) {
	for t := range topologies {
		if topologies[t].name == name {
			return Topology(t), nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown topology %q", name)
}

// Shape describes a fabric: the topology, the node count and the
// per-topology dimensions. It owns every shape rule — defaults, divisibility,
// switch counts, torus factoring, the port bound — so a layer above maps its
// own configuration onto a Shape once and asks it. Zero dimensions take the
// topology's defaults (see Resolve).
type Shape struct {
	Topology Topology
	Nodes    int
	// Hosts is the nodes per switch on Line, FatTree (per edge) and Torus2D;
	// zero picks 2 on a Line (the historical wiring), 4 otherwise.
	Hosts int
	// Spines is the fat-tree spine count. Spines == Hosts is a full-bisection
	// Clos; the default of Hosts/2 (min 2) oversubscribes uplinks 2:1 — the
	// regime where trunk contention shows.
	Spines int
	// Rows x Cols is the torus switch grid; whatever is zero is factored
	// from the switch count, as close to square as possible.
	Rows, Cols int

	// Set by Resolve: how wide the switches are — the edge switches on a
	// fat tree, whose spines have one port per edge.
	ports, spinePorts int
}

// AutoHosts picks a Hosts that divides Nodes while keeping at least two
// switches, so small clusters assemble without hand-tuned shapes (halving
// from the topology's default). On a very large FatTree it then doubles hosts
// per edge until the edge count fits one spine's port budget (every spine
// connects to every edge switch): 4096 nodes get 16 hosts on each of 256
// edges, while everything up to 1024 nodes keeps 4.
func (s Shape) AutoHosts() int {
	if !s.Topology.known() {
		return 0
	}
	h := topologies[s.Topology].hosts
	for h > 1 && (s.Nodes%h != 0 || s.Nodes/h < 2) {
		h /= 2
	}
	for s.Topology == FatTree && s.Nodes%(h*2) == 0 && s.Nodes/h > MaxSwitchPorts {
		h *= 2
	}
	return h
}

// Validate checks the shape without building anything: node count,
// divisibility, minimum switch counts, torus factoring, and every switch's
// port count against the one-byte source-route bound.
func (s Shape) Validate() error {
	_, err := s.Resolve()
	return err
}

// Resolve is Validate, returning the shape with zero dimensions filled with
// the topology's defaults.
func (s Shape) Resolve() (Shape, error) {
	if !s.Topology.known() {
		return s, fmt.Errorf("netsim: unknown topology %d", s.Topology)
	}
	if s.Nodes < 2 {
		return s, fmt.Errorf("netsim: need at least 2 nodes, have %d", s.Nodes)
	}
	t := topologies[s.Topology]
	if s.Hosts <= 0 {
		s.Hosts = t.hosts
	}
	h := s.Hosts
	if h > 0 && (s.Nodes%h != 0 || s.Nodes/h < t.minSwitches) {
		return s, fmt.Errorf("netsim: %s requires Nodes divisible by %d hosts per switch, >=%d switches", s.Topology, h, t.minSwitches)
	}
	switch s.Topology {
	case DirectPair:
		if s.Nodes != 2 {
			return s, fmt.Errorf("netsim: DirectPair requires exactly 2 nodes, have %d", s.Nodes)
		}
	case SingleSwitch:
		s.ports = s.Nodes
	case Line:
		s.ports = h + 2 // left and right trunk
	case FatTree:
		if s.Spines == 0 {
			s.Spines = max(h/2, 2)
		}
		if s.Spines < 1 {
			return s, fmt.Errorf("netsim: FatTree needs >=1 spine, have %d", s.Spines)
		}
		s.ports, s.spinePorts = h+s.Spines, s.Nodes/h
	case Torus2D:
		// Honor whichever of Rows, Cols is explicit; factor what is not, as
		// close to square as possible.
		switches := s.Nodes / h
		if s.Rows <= 0 && s.Cols <= 0 {
			s.Rows = 1
			for r := 2; r*r <= switches; r++ {
				if switches%r == 0 {
					s.Rows = r
				}
			}
		}
		if s.Rows <= 0 {
			s.Rows = switches / s.Cols
		} else if s.Cols <= 0 {
			s.Cols = switches / s.Rows
		}
		if s.Rows*s.Cols != switches {
			return s, fmt.Errorf("netsim: a %dx%d torus does not hold %d switches", s.Rows, s.Cols, switches)
		}
		s.ports = h + 8 // four ring directions x two virtual channels
	}
	if widest := max(s.ports, s.spinePorts); widest > MaxSwitchPorts {
		return s, fmt.Errorf("netsim: %s of %d nodes needs a %d-port switch; one-byte source routes address at most %d — spread it over more switches, or use FatTree or Torus2D",
			s.Topology, s.Nodes, widest, MaxSwitchPorts)
	}
	return s, nil
}

// builder is a Network under construction. A topology's wire function
// creates its switches, interfaces and links through it, in model order —
// forwarder spawn order is the kernel's tie-break order, and fault plans and
// campaign goldens key on link names in Links() order.
type builder struct {
	n          *Network
	cfg        LinkConfig
	routeDelay sim.Time
}

func (b *builder) addSwitch(name string, ports int) *Switch {
	sw := newSwitch(b.n.K, name, ports, b.routeDelay, b.cfg.Slots)
	b.n.switches = append(b.n.switches, sw)
	return sw
}

// addIface creates the next node's interface; nodes are created in ID order.
func (b *builder) addIface() *Iface {
	ifc := &Iface{ID: len(b.n.ifaces), In: sim.NewChan[*Packet](b.n.K, b.cfg.Slots), net: b.n}
	b.n.ifaces = append(b.n.ifaces, ifc)
	return ifc
}

// link creates the wire into dst.
func (b *builder) link(name string, dst *sim.Chan[*Packet]) *Link {
	l := newLink(b.n.K, name, b.cfg, dst)
	l.net = b.n
	b.n.links = append(b.n.links, l)
	return l
}

// attach hangs the next node off port `port` of sw, with one link each way
// named after label (how link names spell the switch).
func (b *builder) attach(sw *Switch, port int, label string) {
	ifc := b.addIface()
	ifc.out = b.link(fmt.Sprintf("n%d->%s", ifc.ID, label), sw.In(port))
	sw.SetOut(port, b.link(fmt.Sprintf("%s->n%d", label, ifc.ID), ifc.In))
}

// appendRoute appends the source route from src to dst (src != dst) to buf:
// one output-port byte per switch on the path.
func (n *Network) appendRoute(buf []uint8, src, dst int) []uint8 {
	return topologies[n.shape.Topology].route(&n.shape, buf, src, dst)
}

// Build assembles the fabric on one kernel and starts its switches in
// creation order. It panics on a shape Validate rejects.
func (s Shape) Build(k *sim.Kernel, cfg LinkConfig, routeDelay sim.Time) *Network {
	s, err := s.Resolve()
	if err != nil {
		panic(err.Error())
	}
	n := &Network{K: k, shape: s, ifaces: make([]*Iface, 0, s.Nodes), links: make([]*Link, 0, 2*s.Nodes)}
	topologies[s.Topology].wire(&builder{n, cfg, routeDelay}, s)
	for _, sw := range n.switches {
		sw.Start()
	}
	return n
}

// NewDirectPair wires two nodes back to back with one link each way —
// the minimal configuration used by the paper's two-node microbenchmarks
// when no switch latency should be charged.
func NewDirectPair(k *sim.Kernel, cfg LinkConfig) *Network {
	return Shape{Topology: DirectPair, Nodes: 2}.Build(k, cfg, 0)
}

// NewFatTree builds a 2-level k-ary Clos fabric: `edges` edge switches with
// `hosts` hosts each and `spines` spine switches.
func NewFatTree(k *sim.Kernel, edges, hosts, spines int, cfg LinkConfig, routeDelay sim.Time) *Network {
	return Shape{Topology: FatTree, Nodes: edges * hosts, Hosts: hosts, Spines: spines}.Build(k, cfg, routeDelay)
}
