package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestDefaultConfigAssembles(t *testing.T) {
	k := sim.NewKernel()
	pl := New(k, DefaultConfig())
	if pl.Nodes() != 2 || len(pl.Hosts) != 2 || len(pl.NICs) != 2 {
		t.Fatalf("platform shape: %d nodes", pl.Nodes())
	}
	if pl.Hosts[0].P.Name != "ppro200" {
		t.Fatalf("profile %q", pl.Hosts[0].P.Name)
	}
}

func TestTopologiesDeliver(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() Config
		nodes int
	}{
		{"direct", func() Config { c := DefaultConfig(); c.Topology = DirectPair; return c }, 2},
		{"switch", func() Config { c := DefaultConfig(); c.Nodes = 4; return c }, 4},
		{"line", func() Config { c := DefaultConfig(); c.Topology = Line; c.Nodes = 6; return c }, 6},
		{"line1host", func() Config {
			c := DefaultConfig()
			c.Topology = Line
			c.Nodes = 8
			c.HostsPerSwitch = 1
			return c
		}, 8},
		{"fattree", func() Config { c := DefaultConfig(); c.Topology = FatTree; c.Nodes = 16; return c }, 16},
		{"fattree-fullbisect", func() Config {
			c := DefaultConfig()
			c.Topology = FatTree
			c.Nodes = 16
			c.Uplinks = 4
			return c
		}, 16},
		{"torus", func() Config { c := DefaultConfig(); c.Topology = Torus2D; c.Nodes = 16; return c }, 16},
		{"torus-rect", func() Config {
			c := DefaultConfig()
			c.Topology = Torus2D
			c.Nodes = 24
			c.HostsPerSwitch = 2 // 12 switches: a 3x4 grid
			return c
		}, 24},
		// The scale-out ceiling: 256-node platforms on the multi-stage
		// fabrics (64 edge/torus switches) must assemble and route.
		{"fattree-256", func() Config { c := DefaultConfig(); c.Topology = FatTree; c.Nodes = 256; return c }, 256},
		{"torus-256", func() Config { c := DefaultConfig(); c.Topology = Torus2D; c.Nodes = 256; return c }, 256},
		{"line-256", func() Config { c := DefaultConfig(); c.Topology = Line; c.Nodes = 256; return c }, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			pl := New(k, tc.cfg())
			last := tc.nodes - 1
			var got []byte
			k.Spawn("sender", func(p *sim.Proc) {
				pl.NICs[0].HostSendPacket(p, &netsim.Packet{Payload: []byte("across")}, last, false)
			})
			k.Spawn("receiver", func(p *sim.Proc) {
				for {
					if pkt, ok := pl.NICs[last].Poll(); ok {
						got = pkt.Payload
						return
					}
					p.Delay(sim.Microsecond)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if string(got) != "across" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []Config{
		{Nodes: 1, Profile: hostmodel.PPro200()},
		{Nodes: 3, Profile: hostmodel.PPro200(), Topology: DirectPair},
		{Nodes: 5, Profile: hostmodel.PPro200(), Topology: Line},
		{Nodes: 6, Profile: hostmodel.PPro200(), Topology: FatTree},  // 6 % 4 != 0
		{Nodes: 4, Profile: hostmodel.PPro200(), Topology: FatTree},  // single edge switch
		{Nodes: 10, Profile: hostmodel.PPro200(), Topology: Torus2D}, // 10 % 4 != 0
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad config did not panic", i)
				}
			}()
			New(sim.NewKernel(), cfg)
		}()
	}
}

// TestAutoShapeFitsSpinePorts: AutoShape is the one fabric-shape rule. Up
// to 1024 nodes a fat tree keeps 4 hosts per edge; past that it doubles
// them until the edge count fits one spine's ports.
func TestAutoShapeFitsSpinePorts(t *testing.T) {
	for _, c := range []struct{ nodes, hosts int }{
		{2, 1}, {6, 2}, {16, 4}, {1024, 4}, {2048, 8}, {4096, 16}, {8192, 32},
	} {
		cfg := DefaultConfig()
		cfg.Nodes, cfg.Topology = c.nodes, FatTree
		cfg.AutoShape()
		if cfg.HostsPerSwitch != c.hosts {
			t.Errorf("%d nodes: %d hosts per edge, want %d", c.nodes, cfg.HostsPerSwitch, c.hosts)
		}
		if c.nodes >= 4 {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%d nodes: auto-shaped config rejected: %v", c.nodes, err)
			}
		}
	}
}

// TestOversizedSwitchIsAnError: a shape that asks for a switch wider than
// netsim.MaxSwitchPorts is rejected by Validate, not by a panic in the
// switch constructor.
func TestOversizedSwitchIsAnError(t *testing.T) {
	for name, cfg := range map[string]Config{
		"fattree spine":   {Nodes: 2048, Topology: FatTree, HostsPerSwitch: 4},
		"fattree edge":    {Nodes: 1024, Topology: FatTree, HostsPerSwitch: 128, Uplinks: 129},
		"line":            {Nodes: 510, Topology: Line, HostsPerSwitch: 255},
		"torus":           {Nodes: 498, Topology: Torus2D, HostsPerSwitch: 249},
		"fattree no auto": {Nodes: 2050, Topology: FatTree, HostsPerSwitch: 2},
	} {
		cfg.Profile = hostmodel.PPro200()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: oversized shape validated", name)
		}
		if _, err := TryNew(sim.NewKernel(), cfg); err == nil {
			t.Errorf("%s: oversized shape assembled", name)
		}
	}
}

// TestNodeIDsFitTheHeaderField: both FM headers and the credit frames carry
// the source node in a uint16, so a cluster past 65 536 nodes — whatever its
// (otherwise legal) fabric shape — is an error, not aliased sources.
func TestNodeIDsFitTheHeaderField(t *testing.T) {
	for _, c := range []struct {
		nodes int
		ok    bool
	}{{65536, true}, {65540, false}, {70000, false}} {
		cfg := Config{Nodes: c.nodes, Topology: Torus2D, Profile: hostmodel.PPro200()}
		err := cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%d nodes: %v", c.nodes, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "16-bit")) {
			t.Errorf("%d nodes: err = %v, want one naming the 16-bit node field", c.nodes, err)
		}
	}
}

// TestRingGrowsWithNodes pins the flow-control satellite at the platform
// level: at 64 nodes the receive ring must have grown past the profile
// default so the effective per-sender window holds the MinWindow floor.
func TestRingGrowsWithNodes(t *testing.T) {
	base := DefaultConfig()
	small := New(sim.NewKernel(), base)
	if small.Cfg.Profile.RingSlots != base.Profile.RingSlots {
		t.Fatalf("2-node ring resized to %d; growth should only kick in at large n",
			small.Cfg.Profile.RingSlots)
	}
	big := base
	big.Nodes = 64
	big.Topology = FatTree
	pl := New(sim.NewKernel(), big)
	if pl.Cfg.Profile.RingSlots < flowctl.MinWindow*(64-1) {
		t.Fatalf("64-node ring is %d slots; windows will collapse below MinWindow",
			pl.Cfg.Profile.RingSlots)
	}
	// The window an endpoint on this platform runs with after flowctl's clamp.
	if w := flowctl.New(64, 0, pl.Cfg.Profile.CreditWindow, pl.Cfg.Profile.RingSlots).Window(); w < flowctl.MinWindow {
		t.Fatalf("effective window %d below floor %d at 64 nodes", w, flowctl.MinWindow)
	}
	if pl.NICs[0].RingSlots() != pl.Cfg.Profile.RingSlots {
		t.Fatalf("NIC ring %d does not match grown profile %d",
			pl.NICs[0].RingSlots(), pl.Cfg.Profile.RingSlots)
	}
}

func TestProfileLinkUsedByFabric(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Profile.Link = netsim.LinkConfig{BandwidthMBps: 10, PropDelay: sim.Microsecond, Slots: 1, FrameOverhead: 0}
	cfg.Topology = DirectPair
	pl := New(k, cfg)
	var arrived sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		pl.NICs[0].HostSendPacket(p, &netsim.Packet{Payload: make([]byte, 1000)}, 1, false)
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for {
			if _, ok := pl.NICs[1].Poll(); ok {
				arrived = p.Now()
				return
			}
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 B must serialize at the overridden 10 MB/s: >= 100 us on the
	// wire alone, far above what the default 160 MB/s link would take.
	if arrived < 100*sim.Microsecond {
		t.Fatalf("arrived at %v; custom link bandwidth not honored", arrived)
	}
}

// A profile whose PollEmpty is not positive, with a negative time constant,
// a rate that is not finite and at least 1 kB/s, framing that is negative
// or over 65 535 bytes, no link slot, a negative NIC send queue, or a
// PacketMTU too short for a header and one payload byte or too long for
// the fragment-length field, is an error from Validate and TryNew: a zero empty poll would spin a waiting
// rank at one instant forever; the rest panic at build or mid-run (a
// crawling rate or a huge frame wraps the clock), lose data, or silently
// model a free copy, bus or wire.
func TestBadProfileIsAnError(t *testing.T) {
	for name, c := range map[string]struct {
		edit func(p *hostmodel.Profile)
		want string
	}{
		"zero poll":       {func(p *hostmodel.Profile) { p.PollEmpty = 0 }, "PollEmpty 0ns must be positive"},
		"negative poll":   {func(p *hostmodel.Profile) { p.PollEmpty = -1 }, "PollEmpty -1ns must be positive"},
		"negative bus":    {func(p *hostmodel.Profile) { p.BusSetup = -1 }, "negative BusSetup"},
		"negative link":   {func(p *hostmodel.Profile) { p.Link.PropDelay = -1 }, "negative Link.PropDelay"},
		"negative match":  {func(p *hostmodel.Profile) { p.MPI.Recv = -1 }, "negative MPI.Recv"},
		"tiny mtu":        {func(p *hostmodel.Profile) { p.PacketMTU = 8 }, "PacketMTU 8 cannot hold"},
		"zero mtu":        {func(p *hostmodel.Profile) { p.PacketMTU = 0 }, "PacketMTU 0 cannot hold"},
		"header-only mtu": {func(p *hostmodel.Profile) { p.PacketMTU = flowctl.MaxHeader }, "cannot hold a 16-byte FM header"},
		// With PacketMTU 70 000, FM 1.x delivered a 69 000-byte message as
		// 3 464 bytes and FM 2.x parked its handler forever on the bytes the
		// 16-bit fragment length lost. FuzzMachine's seeds run the largest
		// MTU accepted, flowctl.MaxPacketMTU.
		"wrapping mtu":   {func(p *hostmodel.Profile) { p.PacketMTU = 70000 }, "PacketMTU 70000 exceeds 65547"},
		"one byte over":  {func(p *hostmodel.Profile) { p.PacketMTU = flowctl.MaxPacketMTU + 1 }, "16-bit fragment-length field"},
		"nan bus":        {func(p *hostmodel.Profile) { p.BusMBps = math.NaN() }, "BusMBps NaN must be finite and positive"},
		"negative copy":  {func(p *hostmodel.Profile) { p.MemcpyMBps = -1 }, "MemcpyMBps -1 must be"},
		"zero big copy":  {func(p *hostmodel.Profile) { p.MemcpyLargeMBps = 0 }, "MemcpyLargeMBps 0 must be"},
		"infinite wire":  {func(p *hostmodel.Profile) { p.Link.BandwidthMBps = math.Inf(1) }, "Link.BandwidthMBps +Inf must be"},
		"negative frame": {func(p *hostmodel.Profile) { p.Link.FrameOverhead = -1 }, "negative Link.FrameOverhead"},
		"huge frame":     {func(p *hostmodel.Profile) { p.Link.FrameOverhead = 1 << 62 }, "Link.FrameOverhead 4611686018427387904 exceeds 65535"},
		"crawling wire":  {func(p *hostmodel.Profile) { p.Link.BandwidthMBps = 1e-300 }, "Link.BandwidthMBps 1e-300 MB/s is below 0.001"},
		"no link slot":   {func(p *hostmodel.Profile) { p.Link.Slots = 0 }, "Link.Slots 0 must be at least 1"},
		"negative sendq": {func(p *hostmodel.Profile) { p.SendQSlots = -1 }, "negative SendQSlots -1"},
		// TryNew grows the ring only up to RingSlotsFor, which is negative
		// for a window below 1: the NIC's ring channel panicked.
		"negative ring": {func(p *hostmodel.Profile) { p.RingSlots, p.CreditWindow = -31, -34 }, "negative RingSlots -31"},
		"unknown stage": {func(p *hostmodel.Profile) { p.Stage = hostmodel.StageLink + 1 }, "unknown Stage 4"},
	} {
		cfg := DefaultConfig()
		c.edit(&cfg.Profile)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want %q", name, err, c.want)
		}
		if _, err := TryNew(sim.NewKernel(), cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: TryNew = %v, want %q", name, err, c.want)
		}
	}
}
