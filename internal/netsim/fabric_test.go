package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// --- injection hardening ------------------------------------------------

func TestSelfAddressedPacketRejected(t *testing.T) {
	k := sim.NewKernel()
	net := Shape{Topology: SingleSwitch, Nodes: 4}.Build(k, myrinet(), 0)
	k.Spawn("self", func(p *sim.Proc) {
		net.Iface(2).Send(p, &Packet{Dst: 2, Payload: []byte{1}})
	})
	err := k.Run()
	if err == nil {
		t.Fatal("self-addressed packet entered the fabric")
	}
	if !strings.Contains(err.Error(), "self-addressed") {
		t.Fatalf("unhelpful diagnostic: %v", err)
	}
}

func TestOutOfRangeDstRejected(t *testing.T) {
	k := sim.NewKernel()
	net := Shape{Topology: SingleSwitch, Nodes: 4}.Build(k, myrinet(), 0)
	k.Spawn("bad", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 9, Payload: []byte{1}})
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "nonexistent node") {
		t.Fatalf("out-of-range destination not rejected cleanly: %v", err)
	}
}

// TestForwarderRouteFaultsFailTheRun: a packet whose source route runs out at
// a switch, or names a port the switch has no link on, is a routing bug; the
// forwarder's panic must come out of Run in the forwarder's name — port
// included — not vanish with, or wedge, the dispatcher it runs on.
func TestForwarderRouteFaultsFailTheRun(t *testing.T) {
	for _, c := range []struct {
		port  int
		route []uint8
		want  string
	}{
		{0, nil, `sim: proc "sw9.fwd0" panicked: netsim: packet from 3 to 4 exhausted its route at switch sw9`},
		{2, []uint8{1}, `sim: proc "sw9.fwd2" panicked: netsim: bad route byte 1 at switch sw9`},
		{1, []uint8{7}, `sim: proc "sw9.fwd1" panicked: netsim: bad route byte 7 at switch sw9`},
	} {
		k := sim.NewKernel()
		sw := newSwitch(k, "sw9", 3, 100*sim.Nanosecond, 1)
		sw.SetOut(0, newLink(k, "sw9->sink", myrinet(), sim.NewChan[*Packet](k, 1)))
		sw.Start()
		k.Spawn("upstream", func(p *sim.Proc) {
			p.Delay(sim.Microsecond)
			sw.In(c.port).Send(p, &Packet{Src: 3, Dst: 4, Route: c.route, Payload: []byte{1}})
		})
		err := k.Run()
		if err == nil || strings.SplitN(err.Error(), "\n", 2)[0] != c.want {
			t.Errorf("route %v into port %d: run ended with %v, want %s", c.route, c.port, err, c.want)
		}
		if k.Now() != sim.Microsecond {
			t.Errorf("route %v: run failed at %v, want at the packet's arrival", c.route, k.Now())
		}
	}
}

// --- generic all-pairs delivery check -----------------------------------

// allPairs drives every (src, dst) pair once and checks payload identity
// and full route consumption.
func allPairs(t *testing.T, k *sim.Kernel, net *Network) {
	t.Helper()
	n := net.Nodes()
	type rx struct{ src, val int }
	got := make([][]rx, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				net.Iface(i).Send(p, &Packet{Dst: j, Payload: []byte{byte(i)}})
			}
		})
		k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			for j := 0; j < n-1; j++ {
				pkt := net.Iface(i).In.Recv(p)
				if len(pkt.Route) != 0 {
					t.Errorf("node %d: route not fully consumed: %v", i, pkt.Route)
				}
				got[i] = append(got[i], rx{pkt.Src, int(pkt.Payload[0])})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if len(got[i]) != n-1 {
			t.Fatalf("node %d got %d packets, want %d", i, len(got[i]), n-1)
		}
		for _, r := range got[i] {
			if r.src != r.val {
				t.Fatalf("node %d: packet from %d carried %d", i, r.src, r.val)
			}
		}
	}
}

// --- fat tree -----------------------------------------------------------

func TestFatTreeAllPairs(t *testing.T) {
	k := sim.NewKernel()
	allPairs(t, k, NewFatTree(k, 4, 2, 2, myrinet(), 100*sim.Nanosecond))
}

func TestFatTreeRouteShape(t *testing.T) {
	k := sim.NewKernel()
	const edges, hosts, spines = 4, 4, 2
	net := NewFatTree(k, edges, hosts, spines, myrinet(), 0)
	// Same edge switch: single host-port byte.
	if r := net.Route(0, 3); len(r) != 1 || r[0] != 3 {
		t.Fatalf("intra-edge route %v, want [3]", r)
	}
	// Cross edge: uplink byte, spine's edge port, host port.
	r := net.Route(0, 13) // edge 0 -> edge 3, local 1
	if len(r) != 3 {
		t.Fatalf("cross-edge route %v, want 3 hops", r)
	}
	if int(r[0]) < hosts || int(r[0]) >= hosts+spines {
		t.Fatalf("first hop %d is not an uplink port", r[0])
	}
	if r[1] != 3 || r[2] != 1 {
		t.Fatalf("descent %v, want edge 3 local 1", r)
	}
}

// TestFatTreeUplinkBalance checks the deterministic per-pair spine
// selection spreads a single edge switch's outbound pairs evenly over all
// uplinks.
func TestFatTreeUplinkBalance(t *testing.T) {
	k := sim.NewKernel()
	const edges, hosts, spines = 4, 4, 4
	net := NewFatTree(k, edges, hosts, spines, myrinet(), 0)
	use := make([]int, spines)
	for src := 0; src < hosts; src++ { // all hosts on edge 0
		for dst := hosts; dst < edges*hosts; dst++ { // every off-edge dst
			r := net.Route(src, dst)
			if len(r) != 3 {
				t.Fatalf("route %d->%d = %v, want 3 hops", src, dst, r)
			}
			use[int(r[0])-hosts]++
		}
	}
	total := hosts * (edges - 1) * hosts
	for s, u := range use {
		if u != total/spines {
			t.Fatalf("spine %d carries %d pairs, want %d (uplinks unbalanced: %v)",
				s, u, total/spines, use)
		}
	}
}

// TestFatTreeCutPatternSpreadsSpines is the regression for the symmetric
// spine hash: under the bisection cut pattern dst = src+n/2 (every flow
// crossing the fabric at once), the per-pair selection must still use
// every spine, not collapse onto one.
func TestFatTreeCutPatternSpreadsSpines(t *testing.T) {
	k := sim.NewKernel()
	const edges, hosts, spines = 8, 4, 2
	n := edges * hosts
	net := NewFatTree(k, edges, hosts, spines, myrinet(), 0)
	use := make([]int, spines)
	for src := 0; src < n/2; src++ {
		use[int(net.Route(src, src+n/2)[0])-hosts]++
	}
	for s, u := range use {
		if u == 0 {
			t.Fatalf("cut pattern leaves spine %d idle (usage %v): bisection collapses to one uplink", s, use)
		}
	}
}

// --- torus --------------------------------------------------------------

func TestTorusAllPairs(t *testing.T) {
	k := sim.NewKernel()
	allPairs(t, k, Shape{Topology: Torus2D, Nodes: 18, Hosts: 2, Rows: 3, Cols: 3}.Build(k, myrinet(), 100*sim.Nanosecond))
}

// A torus grid must hold the switch count exactly; whatever dimension is
// zero is factored from it.
func TestTorusGridMustHoldTheSwitches(t *testing.T) {
	for _, c := range []struct {
		s  Shape
		ok bool
	}{
		{Shape{Topology: Torus2D, Nodes: 16, Rows: 3}, false}, // 4 switches, 3 rows
		{Shape{Topology: Torus2D, Nodes: 16, Rows: 2, Cols: 3}, false},
		{Shape{Topology: Torus2D, Nodes: 16, Rows: 2}, true},
	} {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", c.s, err, c.ok)
		}
	}
	if s, err := (Shape{Topology: Torus2D, Nodes: 24, Hosts: 2}).Resolve(); err != nil || s.Rows != 3 || s.Cols != 4 {
		t.Errorf("24 nodes, 2 per switch: a %dx%d grid (%v), want 3x4", s.Rows, s.Cols, err)
	}
}

// ringDist is the minimal hop count between two coordinates on a ring.
func ringDist(a, b, d int) int {
	fwd := (b - a + d) % d
	if bwd := (a - b + d) % d; bwd < fwd {
		return bwd
	}
	return fwd
}

// TestTorusRoutesMinimal checks every pair's route length equals the
// dimension-order minimal distance plus the final host byte.
func TestTorusRoutesMinimal(t *testing.T) {
	k := sim.NewKernel()
	const rows, cols, hosts = 4, 5, 2
	net := Shape{Topology: Torus2D, Nodes: rows * cols * hosts, Hosts: hosts, Rows: rows, Cols: cols}.Build(k, myrinet(), 0)
	for a := 0; a < net.Nodes(); a++ {
		for b := 0; b < net.Nodes(); b++ {
			if a == b {
				continue
			}
			sa, sb := a/hosts, b/hosts
			want := ringDist(sa%cols, sb%cols, cols) + ringDist(sa/cols, sb/cols, rows) + 1
			if r := net.Route(a, b); len(r) != want {
				t.Fatalf("route %d->%d = %v (len %d), want %d hops", a, b, r, len(r), want)
			}
		}
	}
}

// TestTorusWraparound pins the wrap hops: on a 1x4 ring the route from
// column 0 to column 3 is a single westward wrap hop, and it must ride the
// dateline virtual channel (VC1).
func TestTorusWraparound(t *testing.T) {
	k := sim.NewKernel()
	const hosts = 1
	net := Shape{Topology: Torus2D, Nodes: 4 * hosts, Hosts: hosts, Rows: 1, Cols: 4}.Build(k, myrinet(), 0)
	r := net.Route(0, 3)
	if len(r) != 2 {
		t.Fatalf("wrap route %v, want [westwrap, host]", r)
	}
	if want := uint8(hosts + 2*torusXMinus + 1); r[0] != want {
		t.Fatalf("wrap hop port %d, want VC1 west port %d", r[0], want)
	}
	// 0 -> 2: tie broken eastward, VC0 until the (absent) wrap.
	r = net.Route(0, 2)
	if len(r) != 3 {
		t.Fatalf("tie route %v, want 2 ring hops + host", r)
	}
	for _, hop := range r[:2] {
		if want := uint8(hosts + 2*torusXPlus + 0); hop != want {
			t.Fatalf("tie route hop %d, want VC0 east port %d (route %v)", hop, want, r)
		}
	}
	// A route that continues past the wrap stays on VC1: 1 -> 0 goes west
	// without wrap (VC0), but 2 -> 0 wraps? No: 2->0 is 2 east hops via 3
	// with the wrap 3->0 — first hop VC0, wrap hop VC1.
	r = net.Route(2, 0)
	if len(r) != 3 {
		t.Fatalf("route 2->0 = %v, want 2 ring hops + host", r)
	}
	if r[0] != uint8(hosts+2*torusXPlus) || r[1] != uint8(hosts+2*torusXPlus+1) {
		t.Fatalf("route 2->0 hops %v, want [east VC0, east wrap VC1]", r)
	}
}

// TestTorusDimensionOrder checks X hops strictly precede Y hops.
func TestTorusDimensionOrder(t *testing.T) {
	k := sim.NewKernel()
	const hosts = 1
	net := Shape{Topology: Torus2D, Nodes: 9 * hosts, Hosts: hosts, Rows: 3, Cols: 3}.Build(k, myrinet(), 0)
	r := net.Route(0, 8) // (0,0) -> (2,2): 1 X hop + 1 Y hop (both wraps)
	if len(r) != 3 {
		t.Fatalf("diagonal route %v, want 3", r)
	}
	isX := func(p uint8) bool { d := (int(p) - hosts) / 2; return d == torusXPlus || d == torusXMinus }
	if !isX(r[0]) || isX(r[1]) {
		t.Fatalf("route %v does not run X before Y", r)
	}
}

// --- line edge shapes ---------------------------------------------------

func TestLineSingleHostLongChain(t *testing.T) {
	k := sim.NewKernel()
	const switches = 16
	net := Shape{Topology: Line, Nodes: switches, Hosts: 1}.Build(k, myrinet(), 50*sim.Nanosecond)
	if r := net.Route(0, switches-1); len(r) != switches {
		t.Fatalf("end-to-end route has %d hops, want %d", len(r), switches)
	}
	var got *Packet
	k.Spawn("send", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: switches - 1, Payload: []byte("end-to-end")})
	})
	k.Spawn("recv", func(p *sim.Proc) { got = net.Iface(switches - 1).In.Recv(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Payload) != "end-to-end" || len(got.Route) != 0 {
		t.Fatalf("long-chain delivery broken: %+v", got)
	}
}

// --- saturation / deadlock freedom --------------------------------------

// blastOne floods a fabric: every node sends pkts packets to node 0 (whose
// ejection link and the trunks feeding it saturate), node 0 drains. The
// run must complete — ErrDeadlock here means the topology's routes form a
// buffer-dependency cycle under back-pressure.
func blastOne(t *testing.T, k *sim.Kernel, net *Network, pkts int) {
	t.Helper()
	n := net.Nodes()
	for i := 1; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("blast%d", i), func(p *sim.Proc) {
			for j := 0; j < pkts; j++ {
				net.Iface(i).Send(p, &Packet{Dst: 0, Payload: make([]byte, 64)})
			}
		})
	}
	got := 0
	k.Spawn("sink", func(p *sim.Proc) {
		for got < (n-1)*pkts {
			net.Iface(0).In.Recv(p)
			got++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("saturated fabric did not drain: %v", err)
	}
	if got != (n-1)*pkts {
		t.Fatalf("delivered %d, want %d", got, (n-1)*pkts)
	}
}

func TestLineTrunkSaturation(t *testing.T) {
	cfg := myrinet()
	cfg.Slots = 1 // hardest back-pressure
	k := sim.NewKernel()
	blastOne(t, k, Shape{Topology: Line, Nodes: 8, Hosts: 2}.Build(k, cfg, 0), 30)
}

func TestFatTreeSaturation(t *testing.T) {
	cfg := myrinet()
	cfg.Slots = 1
	k := sim.NewKernel()
	blastOne(t, k, NewFatTree(k, 4, 2, 2, cfg, 0), 30)
}

func TestTorusSaturation(t *testing.T) {
	cfg := myrinet()
	cfg.Slots = 1
	k := sim.NewKernel()
	blastOne(t, k, Shape{Topology: Torus2D, Nodes: 9, Hosts: 1, Rows: 3, Cols: 3}.Build(k, cfg, 0), 30)
}

// TestTorusRingSaturationNoDeadlock is the dateline regression: on a 1x4
// ring with single-slot queues, every node floods the node two hops away.
// All flows travel eastward (ties go +), two of them take the wraparound
// link, and without the VC1 escape channel the four head packets form
// exactly the circular buffer dependency that deadlocks a torus. With the
// dateline discipline the run must drain completely.
func TestTorusRingSaturationNoDeadlock(t *testing.T) {
	cfg := myrinet()
	cfg.Slots = 1
	k := sim.NewKernel()
	net := Shape{Topology: Torus2D, Nodes: 4, Hosts: 1, Rows: 1, Cols: 4}.Build(k, cfg, 0)
	const pkts = 50
	for i := 0; i < 4; i++ {
		i := i
		dst := (i + 2) % 4
		k.Spawn(fmt.Sprintf("flood%d", i), func(p *sim.Proc) {
			for j := 0; j < pkts; j++ {
				net.Iface(i).Send(p, &Packet{Dst: dst, Payload: make([]byte, 64)})
			}
		})
		k.Spawn(fmt.Sprintf("drain%d", i), func(p *sim.Proc) {
			for j := 0; j < pkts; j++ {
				net.Iface(i).In.Recv(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("ring saturation deadlocked despite dateline VCs: %v", err)
	}
}
