// Package cluster assembles complete simulated machines: hosts, NICs, and
// the Myrinet fabric wiring them together. Both FM generations and every
// benchmark build on a Platform.
package cluster

import (
	"fmt"

	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Topology selects how nodes are wired.
type Topology int

const (
	// DirectPair wires exactly two nodes back to back (microbenchmarks).
	DirectPair Topology = iota
	// SingleSwitch hangs all nodes off one crossbar (the usual cluster).
	SingleSwitch
	// Line chains switches with HostsPerSwitch nodes each (multi-hop
	// experiments; the worst-case bisection of one trunk link).
	Line
	// FatTree is a 2-level Clos: edge switches with HostsPerSwitch nodes
	// each, Uplinks spine switches, every edge wired to every spine.
	FatTree
	// Torus2D is a wraparound mesh of switches with HostsPerSwitch nodes
	// each, routed dimension-order with dateline virtual channels.
	Torus2D
)

// String names the topology for reports.
func (t Topology) String() string {
	switch t {
	case DirectPair:
		return "pair"
	case SingleSwitch:
		return "single"
	case Line:
		return "line"
	case FatTree:
		return "fattree"
	case Torus2D:
		return "torus"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// Config describes a Platform.
type Config struct {
	Nodes       int
	Profile     hostmodel.Profile
	NIC         lanai.Config
	Topology    Topology
	SwitchDelay sim.Time // per-hop routing delay for switched topologies

	// Fabric shape for the multi-switch topologies. Zero values pick
	// defaults: 2 hosts per switch on a Line (the historical wiring),
	// 4 on a FatTree or Torus2D.
	HostsPerSwitch int
	// Uplinks is the fat-tree spine count. Uplinks == HostsPerSwitch is a
	// full-bisection Clos; the default of HostsPerSwitch/2 (min 2)
	// oversubscribes uplinks 2:1 — the regime where trunk contention shows.
	Uplinks int
	// TorusRows/TorusCols shape the torus switch grid. When zero, the
	// switch count is factored as close to square as possible.
	TorusRows, TorusCols int

	// Faults, when non-nil, is a deterministic fault schedule applied to the
	// assembled fabric (drops, corruption, flaps, outages, stragglers keyed
	// by link-name glob; see netsim.FaultPlan). Validate checks it; TryNew
	// applies it after the topology is built.
	Faults *netsim.FaultPlan

	// Parallelism partitions the cluster across that many logical processes
	// of a parallel engine (TryNewPar): each LP owns a block of fat-tree
	// edge subtrees and runs on its own goroutine. 0 or 1 means sequential.
	// Requires a FatTree topology with Parallelism dividing the edge-switch
	// count and a positive link propagation delay (the trunk delay is the
	// conservative lookahead).
	Parallelism int
}

// AutoShape picks a HostsPerSwitch that divides Nodes while keeping at
// least two switches on the multi-switch topologies, so small clusters
// assemble without hand-tuned shapes (halving from the topology's default:
// 2 on a Line, 4 on a FatTree or Torus2D). On a very large FatTree it then
// doubles hosts per edge until the edge count fits one spine's port budget
// (every spine connects to every edge switch): 4096 nodes get 16 hosts on
// each of 256 edges, while everything up to 1024 nodes keeps 4. Explicit
// HostsPerSwitch wins.
func (cfg *Config) AutoShape() {
	if cfg.HostsPerSwitch > 0 {
		return
	}
	var h int
	switch cfg.Topology {
	case Line:
		h = 2
	case FatTree, Torus2D:
		h = 4
	default:
		return
	}
	for h > 1 && (cfg.Nodes%h != 0 || cfg.Nodes/h < 2) {
		h /= 2
	}
	for cfg.Topology == FatTree && cfg.Nodes%(h*2) == 0 && cfg.Nodes/h > netsim.MaxSwitchPorts {
		h *= 2
	}
	cfg.HostsPerSwitch = h
}

// DefaultConfig is a two-node PPro-era cluster on one switch.
//
// Structural parameters scale with Nodes at assembly time: New grows the
// profile's receive ring so per-sender credit windows never collapse below
// flowctl.MinWindow at large node counts (the ring bounds the sum of all
// windows aimed at a node, so a fixed-depth ring at n=64 would clamp every
// window to 128/63 = 2 packets and double credit-return traffic).
func DefaultConfig() Config {
	return Config{
		Nodes:       2,
		Profile:     hostmodel.PPro200(),
		NIC:         lanai.DefaultConfig(),
		Topology:    SingleSwitch,
		SwitchDelay: 300 * sim.Nanosecond,
	}
}

// Platform is an assembled cluster ready for a messaging layer. On a
// partitioned platform (TryNewPar), K is LP 0's kernel — use KernelOf to
// place per-node activity on the node's owning partition.
type Platform struct {
	K     *sim.Kernel
	Cfg   Config
	Net   *netsim.Network
	Hosts []*hostmodel.Host
	NICs  []*lanai.NIC

	// Parallel-engine state; nil/empty on a sequential platform.
	Engine *sim.Engine
	LPs    []*sim.LP
	nodeLP []int
}

// Parallel reports whether the platform runs under a parallel engine.
func (pl *Platform) Parallel() bool { return pl.Engine != nil }

// KernelOf returns the kernel that owns node i: the partition's LP kernel
// on a parallel platform, the global kernel otherwise. Procs driving node
// i's endpoints must spawn here.
func (pl *Platform) KernelOf(i int) *sim.Kernel {
	if pl.Engine == nil {
		return pl.K
	}
	return pl.LPs[pl.nodeLP[i]].K
}

// Run drives the platform to completion: Engine.Run when partitioned,
// Kernel.Run otherwise.
func (pl *Platform) Run() error {
	if pl.Engine != nil {
		return pl.Engine.Run()
	}
	return pl.K.Run()
}

// Events reports the events dispatched so far, summed over every LP when
// partitioned.
func (pl *Platform) Events() uint64 {
	if pl.Engine != nil {
		return pl.Engine.Events()
	}
	return pl.K.Events()
}

// hostsPerSwitch resolves the per-switch host count for cfg.
func (cfg *Config) hostsPerSwitch() int {
	if cfg.HostsPerSwitch > 0 {
		return cfg.HostsPerSwitch
	}
	if cfg.Topology == Line {
		return 2
	}
	return 4
}

// torusShape factors the switch count into a rows x cols grid, as square
// as possible, honoring explicit TorusRows/TorusCols.
func torusShape(cfg Config, switches int) (rows, cols int) {
	rows, cols, err := tryTorusShape(cfg, switches)
	if err != nil {
		panic(err.Error())
	}
	return rows, cols
}

// tryTorusShape is torusShape with errors instead of panics, for Validate.
func tryTorusShape(cfg Config, switches int) (rows, cols int, err error) {
	rows, cols = cfg.TorusRows, cfg.TorusCols
	switch {
	case rows > 0 && cols > 0:
		if rows*cols != switches {
			return 0, 0, fmt.Errorf("cluster: torus %dx%d cannot hold %d switches", rows, cols, switches)
		}
		return rows, cols, nil
	case rows > 0:
		if switches%rows != 0 {
			return 0, 0, fmt.Errorf("cluster: %d switches do not fill %d torus rows", switches, rows)
		}
		return rows, switches / rows, nil
	case cols > 0:
		if switches%cols != 0 {
			return 0, 0, fmt.Errorf("cluster: %d switches do not fill %d torus cols", switches, cols)
		}
		return switches / cols, cols, nil
	}
	for r := intSqrt(switches); r >= 1; r-- {
		if switches%r == 0 {
			return r, switches / r, nil
		}
	}
	return 1, switches, nil
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Validate checks cfg's structural constraints — node counts, topology
// divisibility, torus shape, every switch's port count against the one-byte
// source-route bound — without building anything. TryNew and New
// enforce the same rules; public façades (fmnet) call Validate first so a
// bad configuration surfaces as an error, not a panic.
func (cfg Config) Validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("cluster: need at least 2 nodes, have %d", cfg.Nodes)
	}
	h := cfg.hostsPerSwitch()
	// ports is the widest switch a multi-switch shape asks netsim for: host
	// ports plus 2 line trunks, 8 torus ring ports, or a fat-tree edge's
	// uplinks — and a spine's one port per edge.
	ports := 0
	switch cfg.Topology {
	case DirectPair:
		if cfg.Nodes != 2 {
			return fmt.Errorf("cluster: DirectPair requires exactly 2 nodes, have %d", cfg.Nodes)
		}
	case SingleSwitch:
		if cfg.Nodes > netsim.MaxSwitchPorts {
			return fmt.Errorf("cluster: SingleSwitch cannot exceed %d nodes (one-byte source-route ports); use FatTree or Torus2D",
				netsim.MaxSwitchPorts)
		}
	case Line:
		if cfg.Nodes%h != 0 {
			return fmt.Errorf("cluster: Line requires Nodes divisible by %d hosts per switch", h)
		}
		ports = h + 2
	case FatTree:
		if cfg.Nodes%h != 0 || cfg.Nodes/h < 2 {
			return fmt.Errorf("cluster: FatTree requires Nodes divisible by %d hosts per edge, >=2 edges", h)
		}
		if ports = h + cfg.fatTreeSpines(h); ports < cfg.Nodes/h {
			ports = cfg.Nodes / h
		}
	case Torus2D:
		if cfg.Nodes%h != 0 || cfg.Nodes/h < 2 {
			return fmt.Errorf("cluster: Torus2D requires Nodes divisible by %d hosts per switch, >=2 switches", h)
		}
		if _, _, err := tryTorusShape(cfg, cfg.Nodes/h); err != nil {
			return err
		}
		ports = h + 8
	default:
		return fmt.Errorf("cluster: unknown topology %d", cfg.Topology)
	}
	if ports > netsim.MaxSwitchPorts {
		return fmt.Errorf("cluster: %s of %d nodes at %d hosts per switch needs a %d-port switch; one-byte source routes address at most %d",
			cfg.Topology, cfg.Nodes, h, ports, netsim.MaxSwitchPorts)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("cluster: negative Parallelism %d", cfg.Parallelism)
	}
	if cfg.Parallelism > 1 {
		if cfg.Topology != FatTree {
			return fmt.Errorf("cluster: Parallelism requires a FatTree topology (partition boundary is the trunk lookahead), have %s", cfg.Topology)
		}
		fp := netsim.FatTreePartition{Edges: cfg.Nodes / h, Hosts: h, Spines: cfg.fatTreeSpines(h), Parts: cfg.Parallelism}
		if err := fp.Validate(); err != nil {
			return err
		}
		if cfg.Profile.Link.PropDelay < sim.Nanosecond {
			return fmt.Errorf("cluster: Parallelism requires link PropDelay >= 1ns (it is the conservative lookahead)")
		}
	}
	return nil
}

// fatTreeSpines resolves the fat-tree spine count for cfg: explicit
// Uplinks, else half the hosts per edge (min 2) — the 2:1 oversubscribed
// default TryNew has always used.
func (cfg *Config) fatTreeSpines(h int) int {
	spines := cfg.Uplinks
	if spines == 0 {
		if spines = h / 2; spines < 2 {
			spines = 2
		}
	}
	return spines
}

// New builds and starts a Platform on the given kernel, panicking on a
// configuration TryNew would reject.
func New(k *sim.Kernel, cfg Config) *Platform {
	pl, err := TryNew(k, cfg)
	if err != nil {
		panic(err.Error())
	}
	return pl
}

// TryNew builds and starts a Platform on the given kernel, returning an
// error for invalid configurations: the construction path public façades
// thread endpoint assembly through.
func TryNew(k *sim.Kernel, cfg Config) (*Platform, error) {
	if cfg.Parallelism > 1 {
		return nil, fmt.Errorf("cluster: TryNew builds a sequential platform; Parallelism %d needs TryNewPar (or Assemble)", cfg.Parallelism)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Scale the receive ring with the cluster: the ring bounds the sum of
	// every peer's credit window, so it must grow with Nodes or flowctl's
	// safety clamp collapses windows to 1-2 packets and credit returns
	// degenerate to one control packet per data packet.
	if need := flowctl.RingSlotsFor(cfg.Nodes, cfg.Profile.CreditWindow); cfg.Profile.RingSlots < need {
		cfg.Profile.RingSlots = need
	}
	var net *netsim.Network
	switch cfg.Topology {
	case DirectPair:
		net = netsim.NewDirectPair(k, cfg.Profile.Link)
	case SingleSwitch:
		net = netsim.NewSingleSwitch(k, cfg.Nodes, cfg.Profile.Link, cfg.SwitchDelay)
	case Line:
		h := cfg.hostsPerSwitch()
		net = netsim.NewLine(k, cfg.Nodes/h, h, cfg.Profile.Link, cfg.SwitchDelay)
	case FatTree:
		h := cfg.hostsPerSwitch()
		net = netsim.NewFatTree(k, cfg.Nodes/h, h, cfg.fatTreeSpines(h), cfg.Profile.Link, cfg.SwitchDelay)
	case Torus2D:
		h := cfg.hostsPerSwitch()
		rows, cols := torusShape(cfg, cfg.Nodes/h)
		net = netsim.NewTorus2D(k, rows, cols, h, cfg.Profile.Link, cfg.SwitchDelay)
	}
	if cfg.Faults != nil {
		if err := net.ApplyFaults(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	pl := &Platform{K: k, Cfg: cfg, Net: net}
	for i := 0; i < cfg.Nodes; i++ {
		h := hostmodel.NewHost(k, i, cfg.Profile)
		nic := lanai.New(h, net.Iface(i), cfg.NIC)
		nic.Start()
		pl.Hosts = append(pl.Hosts, h)
		pl.NICs = append(pl.NICs, nic)
	}
	return pl, nil
}

// TryNewPar builds a partitioned Platform on a parallel engine: one LP per
// partition (cfg.Parallelism of them), hosts and NICs constructed on their
// owning partition's kernel, trunk links crossing partitions as
// lookahead-bearing portals. Drive it with Platform.Run (or Engine.Run);
// per-node Procs must spawn on KernelOf(node).
func TryNewPar(e *sim.Engine, cfg Config) (*Platform, error) {
	if cfg.Parallelism < 2 {
		return nil, fmt.Errorf("cluster: TryNewPar needs Parallelism >= 2, have %d", cfg.Parallelism)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Same ring-growth rule as TryNew: identical structural parameters are
	// a precondition for identical virtual-time results.
	if need := flowctl.RingSlotsFor(cfg.Nodes, cfg.Profile.CreditWindow); cfg.Profile.RingSlots < need {
		cfg.Profile.RingSlots = need
	}
	h := cfg.hostsPerSwitch()
	fp := netsim.FatTreePartition{
		Edges:  cfg.Nodes / h,
		Hosts:  h,
		Spines: cfg.fatTreeSpines(h),
		Parts:  cfg.Parallelism,
	}
	lps := make([]*sim.LP, fp.Parts)
	for i := range lps {
		lps[i] = e.AddLP(fmt.Sprintf("part%d", i))
	}
	net := netsim.NewFatTreePar(lps, fp, cfg.Profile.Link, cfg.SwitchDelay)
	if cfg.Faults != nil {
		if err := net.ApplyFaults(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	pl := &Platform{K: lps[0].K, Cfg: cfg, Net: net, Engine: e, LPs: lps, nodeLP: make([]int, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		pl.nodeLP[i] = fp.NodeLP(i)
		k := lps[pl.nodeLP[i]].K
		host := hostmodel.NewHost(k, i, cfg.Profile)
		nic := lanai.New(host, net.Iface(i), cfg.NIC)
		nic.Start()
		pl.Hosts = append(pl.Hosts, host)
		pl.NICs = append(pl.NICs, nic)
	}
	return pl, nil
}

// Assemble builds cfg's platform on an engine of its own: a fresh sequential
// kernel, or a parallel engine when cfg.Parallelism > 1.
func Assemble(cfg Config) (*Platform, error) {
	if cfg.Parallelism > 1 {
		return TryNewPar(sim.NewEngine(), cfg)
	}
	return TryNew(sim.NewKernel(), cfg)
}

// Nodes reports the node count.
func (pl *Platform) Nodes() int { return len(pl.Hosts) }

// EffectiveWindow reports the per-destination credit window an endpoint on
// this platform will run with after flow-control clamping — the number the
// ring-growth rule in New keeps at or above flowctl.MinWindow.
func (pl *Platform) EffectiveWindow() int {
	return flowctl.New(pl.Nodes(), 0, pl.Cfg.Profile.CreditWindow, pl.Cfg.Profile.RingSlots).Window()
}
