// The five topologies: each is one wire function (switches, nodes and links
// in model order, see builder) and one closed-form route function over the
// port map it lays down, entered in the topologies table. A topology is
// decided in this package and nowhere else: adding one is those two
// functions, a row of the table and, for rules no other topology shares, a
// case in Shape.Resolve. Routes are computed per packet, never stored. A
// change here keeps link names, Links() order and switch creation order
// exact, since the kernel's tie-breaks and every fault plan key on them;
// route_test.go holds them to digests of the old route tables. The multi-stage
// fabrics — the topologies that carried FM-class machines past a single
// crossbar — produce deadlock-free source routes under the back-pressure
// Switch/Link model:
//
//   - The fat tree is a 2-level k-ary Clos. Up*/down* routing (climb to a
//     spine, descend to the destination edge) gives an acyclic channel
//     dependency graph, so back-pressure can never cycle.
//
//   - The torus is a wraparound mesh with dimension-order (X then Y)
//     source routing. A torus ring with back-pressure and a single channel
//     per link CAN deadlock (the wrap link closes the buffer-dependency
//     cycle), so each ring direction is built from two parallel physical
//     links per hop acting as the classic Dally/Seitz dateline virtual
//     channels: a packet travels on VC0 until it takes the wrap hop, and on
//     VC1 from the wrap onward. VC0 dependencies ascend the ring, VC1
//     dependencies ascend again after the single wrap, and transitions only
//     go VC0 -> VC1 — no cycle. Dimension order makes X->Y dependencies
//     acyclic across dimensions.
package netsim

import (
	"fmt"
	"strconv"
)

// wirePair wires two nodes back to back, no switch: routes are empty.
func wirePair(b *builder, _ Shape) {
	b.n.desc = "direct pair"
	n0, n1 := b.addIface(), b.addIface()
	n0.out = b.link(nil, nil, 0, n1.In)
	n1.out = b.link(nil, nil, 1, n0.In)
}

func routePair(_ *Shape, buf []uint8, _, _ int) []uint8 { return buf }

// wireSingle hangs every node off one crossbar, node i on port i: the route
// to dst is the single byte [dst].
func wireSingle(b *builder, s Shape) {
	b.n.desc = fmt.Sprintf("%d nodes on one crossbar", s.Nodes)
	sw := b.addSwitch("sw", 0, s.ports)
	for i := 0; i < s.Nodes; i++ {
		b.attach(sw, i)
	}
}

func routeSingle(_ *Shape, buf []uint8, _, dst int) []uint8 { return append(buf, uint8(dst)) }

// wireLine chains Nodes/Hosts switches. Switch port map: 0..h-1 host ports,
// h = left trunk, h+1 = right trunk.
func wireLine(b *builder, s Shape) {
	h := s.Hosts
	sws := make([]*Switch, s.Nodes/h)
	b.n.desc = fmt.Sprintf("line of %d switches x %d hosts", len(sws), h)
	for i := range sws {
		sws[i] = b.addSwitch("sw", i, s.ports)
	}
	for i, sw := range sws {
		for l := 0; l < h; l++ {
			b.attach(sw, l)
		}
		if i > 0 { // trunk to the left neighbor
			sw.SetOut(h, b.link(sw, sws[i-1], 0, sws[i-1].In(h+1)))
		}
		if i < len(sws)-1 { // trunk to the right neighbor
			sw.SetOut(h+1, b.link(sw, sws[i+1], 0, sws[i+1].In(h)))
		}
	}
}

func routeLine(s *Shape, buf []uint8, src, dst int) []uint8 {
	h := s.Hosts
	trunk, hops := h+1, dst/h-src/h // go right
	if hops < 0 {
		trunk, hops = h, -hops // go left
	}
	for ; hops > 0; hops-- {
		buf = append(buf, uint8(trunk))
	}
	return append(buf, uint8(dst%h))
}

// wireFatTree wires Nodes/Hosts edge switches with Hosts hosts each to
// Spines spine switches, every edge to every spine by one uplink pair.
// Bisection bandwidth is Spines/Hosts of full (Spines == Hosts is a
// full-bisection fat tree, fewer spines oversubscribes the uplinks — the
// regime the contention benches price).
//
// Edge switch port map: 0..hosts-1 host ports, hosts+s = uplink to spine s.
// Spine switch port map: port e = downlink to edge e.
func wireFatTree(b *builder, s Shape) {
	hosts := s.Hosts
	edges, spines := make([]*Switch, s.Nodes/hosts), make([]*Switch, s.Spines)
	b.n.desc = fmt.Sprintf("fat tree: %d edge switches x %d hosts, %d spines (%d nodes)", len(edges), hosts, len(spines), s.Nodes)
	for e := range edges {
		edges[e] = b.addSwitch("edge", e, s.ports)
	}
	for sp := range spines {
		spines[sp] = b.addSwitch("spine", sp, s.spinePorts)
	}
	for e, edge := range edges {
		for l := 0; l < hosts; l++ {
			b.attach(edge, l)
		}
		for sp, spine := range spines {
			edge.SetOut(hosts+sp, b.link(edge, spine, 0, spine.In(e)))
			spine.SetOut(e, b.link(spine, edge, 0, edge.In(hosts+sp)))
		}
	}
}

// routeFatTree: one host-port byte inside an edge switch, else uplink,
// the spine's port for the destination edge, host port. Uplink selection is
// deterministic per (src, dst) pair — spine = (2*src+dst) mod spines — so
// routes are reproducible and all pairs sharing a spine are known
// statically. The 2x src weighting keeps the spread balanced both for one
// edge fanning out to every destination (dst cycles through all residues)
// and for shifted-pair patterns like the bisection cut dst = src+n/2, where
// a symmetric src+dst hash would put every flow on the same spine
// (2*src+dst varies with src there because 3 is coprime to the usual
// power-of-two spine counts).
func routeFatTree(s *Shape, buf []uint8, src, dst int) []uint8 {
	hosts := s.Hosts
	if src/hosts != dst/hosts {
		buf = append(buf, uint8(hosts+(2*src+dst)%s.Spines), uint8(dst/hosts))
	}
	return append(buf, uint8(dst%hosts))
}

// Torus direction indices; out port for (dir d, vc v) on a torus switch
// with h host ports is h + 2*d + v, and the link lands on the same input
// index at the neighbor (only one neighbor can send traffic travelling in
// direction d into a given switch, so the index is unique per input).
const (
	torusXPlus  = 0 // east: col+1 (mod cols)
	torusXMinus = 1 // west: col-1
	torusYPlus  = 2 // south: row+1 (mod rows)
	torusYMinus = 3 // north: row-1
)

// torusDirs spells each direction in a trunk's name: "t0.1+x.vc0".
var torusDirs = [...]string{torusXPlus: "+x", torusXMinus: "-x", torusYPlus: "+y", torusYMinus: "-y"}

// wireTorus wires a Rows x Cols torus of switches with Hosts hosts each.
// Node IDs are (row*cols+col)*hosts + local.
func wireTorus(b *builder, s Shape) {
	rows, cols, hosts := s.Rows, s.Cols, s.Hosts
	b.n.desc = fmt.Sprintf("%dx%d torus x %d hosts (%d nodes), DOR + dateline VCs", rows, cols, hosts, s.Nodes)
	sws := make([]*Switch, rows*cols)
	for i := range sws {
		sws[i] = b.addSwitch("t", i, s.ports)
	}
	at := func(r, c int) *Switch { return sws[((r+rows)%rows)*cols+(c+cols)%cols] }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			me := at(r, c)
			for l := 0; l < hosts; l++ {
				b.attach(me, l)
			}
			// Inter-switch links: one per (direction, VC). Degenerate
			// dimensions (size 1) need no links — routes never move there.
			ring := func(dir int, nb *Switch) {
				for v := 0; v < 2; v++ {
					port := hosts + 2*dir + v
					me.SetOut(port, b.link(me, nb, port, nb.In(port)))
				}
			}
			if cols > 1 {
				ring(torusXPlus, at(r, c+1))
				ring(torusXMinus, at(r, c-1))
			}
			if rows > 1 {
				ring(torusYPlus, at(r+1, c))
				ring(torusYMinus, at(r-1, c))
			}
		}
	}
}

// routeTorus is minimal dimension-order routing (X first, then Y; ties
// at exactly half a ring go in the + direction). Every inter-switch hop
// carries a virtual channel in its port byte per the dateline discipline
// described in the package comment, so routes are deadlock-free under
// back-pressure.
func routeTorus(s *Shape, buf []uint8, src, dst int) []uint8 {
	hosts, cols := s.Hosts, s.Cols
	sa, sb := src/hosts, dst/hosts
	buf = appendRingHops(buf, hosts, sa%cols, sb%cols, cols, torusXPlus, torusXMinus)
	buf = appendRingHops(buf, hosts, sa/cols, sb/cols, s.Rows, torusYPlus, torusYMinus)
	return append(buf, uint8(dst%hosts))
}

// appendRingHops emits the port bytes that move a packet from coordinate
// `from` to `to` around a ring of size d, taking the minimal direction
// (ties go +). The hop that traverses the ring's wraparound link — and
// every hop after it — is emitted on VC1; hops before the wrap use VC0.
// Minimal routes wrap at most once, which is what makes the dateline
// argument hold.
func appendRingHops(route []uint8, hosts, from, to, d, dirPlus, dirMinus int) []uint8 {
	if from == to || d == 1 {
		return route
	}
	fwd := (to - from + d) % d
	bwd := (from - to + d) % d
	dir, hops, step := dirPlus, fwd, 1
	if bwd < fwd {
		dir, hops, step = dirMinus, bwd, -1
	}
	vc := 0
	x := from
	for i := 0; i < hops; i++ {
		wrap := (step == 1 && x == d-1) || (step == -1 && x == 0)
		if wrap {
			vc = 1
		}
		route = append(route, uint8(hosts+2*dir+vc))
		x = (x + step + d) % d
	}
	return route
}

// Names. A switch, a link and a forwarder are named by what they already
// hold — prefix and index, their ends, their port — and spelled only when
// something reads the name: a fault rule's glob, a link's fault stream seed,
// a panic, a hang report. The spellings are fixed: fault plans and campaign
// goldens key on them.

// appendName appends the switch's name: prefix and index ("sw0", "edge3",
// "spine1"), or on a torus "t" and the switch's row and column ("t1.2").
func (s *Switch) appendName(b []byte) []byte {
	b = append(b, s.prefix...)
	if s.net.shape.Topology == Torus2D {
		cols := s.net.shape.Cols
		b = strconv.AppendInt(b, int64(s.idx/cols), 10)
		return strconv.AppendInt(append(b, '.'), int64(s.idx%cols), 10)
	}
	return strconv.AppendInt(b, int64(s.idx), 10)
}

// appendLabel appends the switch as a host link's name spells it: its name,
// but the one crossbar of a SingleSwitch fabric is plain "sw".
func (s *Switch) appendLabel(b []byte) []byte {
	if s.net.shape.Topology == SingleSwitch {
		return append(b, s.prefix...)
	}
	return s.appendName(b)
}

// appendName appends the link's name: "0->1" on a direct pair, "n3->edge0"
// and "edge0->n3" between a node and its switch, "edge0->spine1" between
// switches, and on a torus the sending switch, the ring direction and the VC
// ("t0.1+x.vc0").
func (l *Link) appendName(b []byte) []byte {
	node := int64(l.node)
	switch {
	case l.from == nil && l.to == nil:
		b = strconv.AppendInt(b, node, 10)
		return strconv.AppendInt(append(b, "->"...), 1-node, 10)
	case l.from == nil:
		b = strconv.AppendInt(append(b, 'n'), node, 10)
		return l.to.appendLabel(append(b, "->"...))
	case l.to == nil:
		return strconv.AppendInt(append(l.from.appendLabel(b), "->n"...), node, 10)
	case l.net.shape.Topology == Torus2D:
		d := l.node - l.net.shape.Hosts // 2*direction + VC
		b = append(l.from.appendName(b), torusDirs[d/2]...)
		return strconv.AppendInt(append(b, ".vc"...), int64(d%2), 10)
	}
	return l.to.appendName(append(l.from.appendName(b), "->"...))
}
