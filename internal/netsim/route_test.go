package netsim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// routeDigest is FNV-64a over (len, bytes...) of every ordered pair's route.
func routeDigest(net *Network) uint64 {
	h := fnv.New64a()
	for a := 0; a < net.Nodes(); a++ {
		for b := 0; b < net.Nodes(); b++ {
			if a != b {
				r := net.Route(a, b)
				h.Write([]byte{byte(len(r))})
				h.Write(r)
			}
		}
	}
	return h.Sum64()
}

// linkDigest is FNV-64a over the NUL-terminated link names in Links() order.
func linkDigest(net *Network) uint64 {
	h := fnv.New64a()
	for _, l := range net.Links() {
		h.Write([]byte(l.Name()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// oracleShapes is the fixed shape list of the differential oracle. The
// routes and links constants were printed by these same two digest functions
// over the fabrics the PARENT commit's constructors built — the eager
// routes[src][dst] tables this package no longer has — so "identical route
// bytes, identical link names in identical order" is a machine check, not a
// claim. Even torus rings exercise the half-ring tie; the 40-switch chain
// spills the packet's inline route array.
var oracleShapes = []struct {
	s             Shape
	routes, links uint64
}{
	{Shape{Topology: DirectPair, Nodes: 2}, 0x08328807b4eb6fed, 0x02fb44ac1a67b863},
	{Shape{Topology: SingleSwitch, Nodes: 2}, 0xb5d0df774c7d72e6, 0x7ef12ba617b72667},
	{Shape{Topology: SingleSwitch, Nodes: 256}, 0xe2b88833f2162c25, 0x2f0c51bdefe82f47},
	{Shape{Topology: Line, Nodes: 8, Hosts: 2}, 0x92ba37bd64c258a9, 0x4f8c54807aec45e3},
	{Shape{Topology: Line, Nodes: 15, Hosts: 5}, 0x727b66d87771a333, 0x534b1f4937c35ad9},
	{Shape{Topology: Line, Nodes: 40, Hosts: 1}, 0xc7c7b2f8f6316d9d, 0x3d80625b3c5f587b},
	{Shape{Topology: FatTree, Nodes: 8, Hosts: 2, Spines: 2}, 0x5b2ad0cbc87b6715, 0xac5d1cf906b743f5},
	{Shape{Topology: FatTree, Nodes: 256, Hosts: 4, Spines: 2}, 0xccf3f281b2caf7a5, 0x33497e1e8e45e083},
	{Shape{Topology: FatTree, Nodes: 4096, Hosts: 16, Spines: 8}, 0x1e0862a05af50725, 0xa8fb1e754c81d0e3},
	{Shape{Topology: Torus2D, Nodes: 5, Hosts: 1, Rows: 1, Cols: 5}, 0x998a08e9fa1c5f9f, 0x8808a03540d82367},
	{Shape{Topology: Torus2D, Nodes: 20, Hosts: 4, Rows: 1, Cols: 5}, 0x22feacc83ce07479, 0x89d4f920190b9eaf},
	{Shape{Topology: Torus2D, Nodes: 16, Hosts: 1, Rows: 4, Cols: 4}, 0x57a82c6c83d757dd, 0x90d2d3118e8c3dd3},
	{Shape{Topology: Torus2D, Nodes: 64, Hosts: 4, Rows: 4, Cols: 4}, 0xaf4ba9acb95c2705, 0x3d8eb1b3d2210337},
	{Shape{Topology: Torus2D, Nodes: 21, Hosts: 1, Rows: 3, Cols: 7}, 0x200b957931e3d7e5, 0x006760d90fc8f96d},
	{Shape{Topology: Torus2D, Nodes: 84, Hosts: 4, Rows: 3, Cols: 7}, 0xaed2badd40aac9b9, 0xb6f29296275a90eb},
	{Shape{Topology: Torus2D, Nodes: 128, Hosts: 1, Rows: 8, Cols: 16}, 0xbadbadd2a5368ffd, 0x49c4aa633e1f642f},
	{Shape{Topology: Torus2D, Nodes: 512, Hosts: 4, Rows: 8, Cols: 16}, 0xe68688091dcc4bc5, 0xe231c50119370d87},
}

func shapeName(s Shape) string {
	return fmt.Sprintf("%s-%d/h%d/s%d/%dx%d", s.Topology, s.Nodes, s.Hosts, s.Spines, s.Rows, s.Cols)
}

// TestRoutesMatchParentTables: the route function against the tables it
// replaced, and the wiring against the constructors it replaced.
func TestRoutesMatchParentTables(t *testing.T) {
	for _, c := range oracleShapes {
		t.Run(shapeName(c.s), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			net := c.s.Build(k, DefaultMyrinet(), 0)
			if got := routeDigest(net); got != c.routes {
				t.Errorf("route digest %#016x, parent's tables gave %#016x", got, c.routes)
			}
			if got := linkDigest(net); got != c.links {
				t.Errorf("link-name digest %#016x, parent's constructor gave %#016x", got, c.links)
			}
		})
	}
}

// portMap is a built fabric's wiring as a pure lookup — nothing ever runs:
// where each node's egress link and each switch output port lands, read off
// the switches' own output arrays by which switch (or node) owns the input
// queue a link delivers into.
type portMap struct {
	net  *Network
	host []place   // host[id]: where node id's egress link lands
	out  [][]place // out[sw][port]; unwired ports hold the zero place{}
}

// place is where a link lands: node `node`, or switch sw-1 (creation order)
// when sw > 0. The zero place is nowhere.
type place struct{ sw, node int }

func newPortMap(t *testing.T, s Shape) portMap {
	k := sim.NewKernel()
	t.Cleanup(k.Shutdown)
	m := portMap{net: s.Build(k, DefaultMyrinet(), 0)}
	owner := map[*sim.Chan[*Packet]]place{}
	for i, ifc := range m.net.ifaces {
		owner[ifc.In] = place{-1, i}
	}
	for i, sw := range m.net.switches {
		for _, in := range sw.in {
			owner[in] = place{i + 1, 0}
		}
	}
	for _, ifc := range m.net.ifaces {
		m.host = append(m.host, owner[ifc.out.dst])
	}
	for _, sw := range m.net.switches {
		ports := make([]place, len(sw.out))
		for port, l := range sw.out {
			if l != nil {
				ports[port] = owner[l.dst]
			}
		}
		m.out = append(m.out, ports)
	}
	return m
}

// step follows one route byte out of the switch at `at`.
func (m portMap) step(at place, port uint8) (place, error) {
	if at.sw <= 0 {
		return at, fmt.Errorf("route byte %d left over after reaching node %d", port, at.node)
	}
	if int(port) >= len(m.out[at.sw-1]) || m.out[at.sw-1][port] == (place{}) {
		return at, fmt.Errorf("switch %s has no wired port %d", m.net.switches[at.sw-1].name, port)
	}
	return m.out[at.sw-1][port], nil
}

// TestRoutesWalkThePortMap follows every route over the port map the builder
// laid down: each byte must name a wired output port and the last link must
// land on dst.
func TestRoutesWalkThePortMap(t *testing.T) {
	for _, c := range oracleShapes {
		if c.s.Nodes > 1024 && (testing.Short() || sim.RaceEnabled) {
			continue // 16.7M routes; the small fat trees walk the same closed form
		}
		m := newPortMap(t, c.s)
		var route []uint8
		for src := 0; src < c.s.Nodes; src++ {
			for dst := 0; dst < c.s.Nodes; dst++ {
				if src == dst {
					continue
				}
				route = m.net.appendRoute(route[:0], src, dst)
				at, err := m.host[src], error(nil)
				for _, port := range route {
					if at, err = m.step(at, port); err != nil {
						t.Fatalf("%s: route %d->%d %v: %v", shapeName(c.s), src, dst, route, err)
					}
				}
				if at != (place{-1, dst}) {
					t.Fatalf("%s: route %d->%d %v ends at %+v", shapeName(c.s), src, dst, route, at)
				}
			}
		}
	}
}

// TestTorusDatelineDiscipline is fabric.go's deadlock-freedom argument as a
// check: within each ring a route rides VC0 up to its wrap hop and VC1 from
// the wrap hop on — the VC bit is monotone 0 -> 1 and changes only on a hop
// that crosses the wraparound link.
func TestTorusDatelineDiscipline(t *testing.T) {
	for _, c := range oracleShapes {
		if c.s.Topology != Torus2D {
			continue
		}
		s, m := c.s, newPortMap(t, c.s)
		for src := 0; src < s.Nodes; src++ {
			for dst := 0; dst < s.Nodes; dst++ {
				if src == dst {
					continue
				}
				route, at := m.net.Route(src, dst), m.host[src]
				wrapped := [2]bool{} // per ring: X, Y
				for _, port := range route[:len(route)-1] {
					dir, vc := (int(port)-s.Hosts)/2, (int(port)-s.Hosts)%2
					next, err := m.step(at, port)
					if err != nil {
						t.Fatalf("%s: route %d->%d %v: %v", shapeName(s), src, dst, route, err)
					}
					// Switches are created row-major. A + hop wraps when the
					// coordinate falls, a - hop when it rises.
					from, to := (at.sw-1)%s.Cols, (next.sw-1)%s.Cols
					if dir >= torusYPlus {
						from, to = (at.sw-1)/s.Cols, (next.sw-1)/s.Cols
					}
					plus := dir == torusXPlus || dir == torusYPlus
					if (plus && to < from) || (!plus && to > from) {
						wrapped[dir/2] = true
					}
					if (vc == 1) != wrapped[dir/2] {
						t.Fatalf("%s: route %d->%d %v: hop %d rides VC%d with wrapped=%v",
							shapeName(s), src, dst, route, port, vc, wrapped[dir/2])
					}
					at = next
				}
			}
		}
	}
}

// TestLargeFatTreeBuildIsLinear pins the set-up cost the route tables used to
// dominate: the 4096-node fat tree allocated 446 MiB in 16.9 M mallocs at the
// parent commit, all but 15 MiB of it routes[src][dst].
func TestLargeFatTreeBuildIsLinear(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	k := sim.NewKernel()
	net := NewFatTree(k, 256, 16, 8, DefaultMyrinet(), 0)
	runtime.ReadMemStats(&m1)
	defer k.Shutdown()
	if net.Nodes() != 4096 {
		t.Fatalf("built %d nodes", net.Nodes())
	}
	mib, mallocs := float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), m1.Mallocs-m0.Mallocs
	t.Logf("4096-node fat tree: %.1f MiB in %d mallocs", mib, mallocs)
	if mib >= 32 || mallocs >= 200_000 {
		t.Fatalf("4096-node fat tree allocated %.1f MiB in %d mallocs; want < 32 MiB and < 200k (an O(nodes^2) term is back)", mib, mallocs)
	}
}

// TestInjectZeroAlloc: steady-state injection allocates nothing — the route
// is computed into the pooled packet's own array, on one-, three- and
// many-hop paths alike.
func TestInjectZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	for name, s := range map[string]Shape{
		"fattree-32": {Topology: FatTree, Nodes: 32, Hosts: 4, Spines: 2},
		"torus-4x4":  {Topology: Torus2D, Nodes: 32, Hosts: 2, Rows: 4, Cols: 4},
	} {
		t.Run(name, func(t *testing.T) {
			const warm, pkts = 200, 1000
			k := sim.NewKernel()
			net := s.Build(k, DefaultMyrinet(), 100*sim.Nanosecond)
			pool := NewFramePool(64, 0)
			for i := 1; i < net.Nodes(); i++ {
				in := net.Iface(i).In
				k.SpawnDaemon(fmt.Sprintf("sink%d", i), func(p *sim.Proc) {
					for {
						in.Recv(p).Release()
					}
				})
			}
			var allocs uint64
			k.Spawn("inject", func(p *sim.Proc) {
				dst := 0
				send := func(n int) {
					for i := 0; i < n; i++ {
						dst = dst%(net.Nodes()-1) + 1
						pkt := pool.Get(64)
						pkt.Dst = dst
						net.Iface(0).Send(p, pkt)
					}
				}
				send(warm)
				allocs = alloctest.MinMallocs(func() { send(pkts) })
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("injection allocated %d times over %d packets; must be 0/packet", allocs, pkts)
			}
			if st := pool.Stats(); st.Gets-st.Allocs < pkts {
				t.Fatalf("pool recycled %d of %d frames — the window is not steady state", st.Gets-st.Allocs, st.Gets)
			}
		})
	}
}

// TestTopologyNamesRoundTrip pins the five names scenario files, bench
// sweeps and report goldens spell, and that ParseTopology inverts String.
func TestTopologyNamesRoundTrip(t *testing.T) {
	for topo, name := range map[Topology]string{
		DirectPair: "pair", SingleSwitch: "single", Line: "line", FatTree: "fattree", Torus2D: "torus",
	} {
		if topo.String() != name {
			t.Errorf("%d prints %q, want %q", int(topo), topo, name)
		}
		if got, err := ParseTopology(name); err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Error("unknown topology name parsed")
	}
}
