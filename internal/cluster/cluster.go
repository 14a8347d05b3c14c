// Package cluster assembles complete simulated machines: hosts, NICs, and
// the Myrinet fabric wiring them together. Both FM generations and every
// benchmark build on a Platform.
//
// There is one way to build a stack, and two places build a machine:
// fmnet.New (sessions, examples, the repo benchmark) and internal/bench's
// world.go (every harness driver). The way is an xport.Machine (a
// generation's Gen.Machine, fields varied as the caller needs), its
// Config at a node count and topology, then Assemble (the only entry to a
// partitioned platform; TryNew is its sequential-only form and both share
// one private assemble), then xport.AttachEndpoints with the same Machine
// (one endpoint per node), xport.Spaces (a service registered on every
// node), and the layer's one constructor: mpifm.Attach (at the Machine's
// Profile.MPI), sockfm.New, shmem.Attach, garr.Attach or svcload.Attach. No
// upper layer imports this package, and no third file calls Assemble.
//
// Config maps onto a netsim.Shape, which owns every fabric-shape rule;
// Validate adds the 65 536-node bound of the headers' 16-bit node field.
package cluster

import (
	"fmt"

	"repro/internal/flowctl"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Topology selects how nodes are wired. The enum, its names and every rule
// about what each topology needs live with the wiring, in netsim; this
// package and fmnet re-export the constants.
type Topology = netsim.Topology

const (
	DirectPair   = netsim.DirectPair
	SingleSwitch = netsim.SingleSwitch
	Line         = netsim.Line
	FatTree      = netsim.FatTree
	Torus2D      = netsim.Torus2D
)

// Config describes a Platform.
type Config struct {
	Nodes       int
	Profile     hostmodel.Profile
	NIC         lanai.Config
	Topology    Topology
	SwitchDelay sim.Time // per-hop routing delay for switched topologies

	// Fabric shape for the multi-switch topologies: netsim.Shape's Hosts,
	// Spines (the fat-tree spine count) and Rows x Cols (the torus switch
	// grid). Zero values pick the defaults documented there.
	HostsPerSwitch       int
	Uplinks              int
	TorusRows, TorusCols int

	// Faults, when non-nil, is a deterministic fault schedule applied to the
	// assembled fabric (drops, corruption, flaps, outages, stragglers keyed
	// by link-name glob; see netsim.FaultPlan). Validate checks it; TryNew
	// applies it after the topology is built.
	Faults *netsim.FaultPlan

	// Parallelism partitions the cluster across that many logical processes
	// of a parallel engine (Assemble): each LP owns a block of fat-tree
	// edge subtrees and runs on its own goroutine. 0 or 1 means sequential.
	// Requires a FatTree topology with Parallelism dividing the edge-switch
	// count and a positive link propagation delay (the trunk delay is the
	// conservative lookahead).
	Parallelism int
}

// AutoShape fills a zero HostsPerSwitch with netsim.Shape.AutoHosts' pick
// for cfg.Nodes — the one fabric-shape rule — so small clusters assemble
// without hand-tuned shapes and very large fat trees fit a spine's ports.
// Explicit HostsPerSwitch wins.
func (cfg *Config) AutoShape() {
	if cfg.HostsPerSwitch <= 0 {
		cfg.HostsPerSwitch = cfg.shape().AutoHosts()
	}
}

// shape maps cfg onto the netsim value that owns the shape rules.
func (cfg *Config) shape() netsim.Shape {
	return netsim.Shape{Topology: cfg.Topology, Nodes: cfg.Nodes, Hosts: cfg.HostsPerSwitch,
		Spines: cfg.Uplinks, Rows: cfg.TorusRows, Cols: cfg.TorusCols}
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
// partitioned platform (Assemble with Parallelism > 1), K is LP 0's kernel — use KernelOf to
// place per-node activity on the node's owning partition.
type Platform struct {
	K     *sim.Kernel
	Cfg   Config
	Net   *netsim.Network
	Hosts []*hostmodel.Host
	NICs  []*lanai.NIC

	Engine *sim.Engine // the parallel engine; nil on a sequential platform
}

// Parallel reports whether the platform runs under a parallel engine.
func (pl *Platform) Parallel() bool { return pl.Engine != nil }

// KernelOf returns the kernel that owns node i — wherever the fabric placed
// it: the partition's LP kernel on a parallel platform, the global kernel
// otherwise. Procs driving node i's endpoints must spawn here.
func (pl *Platform) KernelOf(i int) *sim.Kernel { return pl.Net.Iface(i).K }

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

// Validate checks cfg's structural constraints — the node count and the
// packet MTU against the wire format, the host profile's constants
// (hostmodel owns those rules), the fabric shape (netsim.Shape owns those),
// the fault plan, the partitioning — without building anything. TryNew and
// New enforce the same rules; public façades (fmnet) call Validate first so
// a bad configuration surfaces as an error, not a panic or a run that never
// ends.
func (cfg Config) Validate() error {
	if err := cfg.Profile.Validate(); err != nil {
		return err
	}
	if cfg.Profile.PacketMTU <= flowctl.MaxHeader {
		return fmt.Errorf("cluster: PacketMTU %d cannot hold a %d-byte FM header and one payload byte",
			cfg.Profile.PacketMTU, flowctl.MaxHeader)
	}
	if cfg.Nodes > flowctl.MaxNodes {
		return fmt.Errorf("cluster: %d nodes exceed %d: both FM headers and the credit frames carry the source node in a 16-bit field",
			cfg.Nodes, flowctl.MaxNodes)
	}
	if err := cfg.shape().Validate(); err != nil {
		return err
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
		if err := cfg.partition().Validate(); err != nil {
			return err
		}
		if cfg.Profile.Link.PropDelay < sim.Nanosecond {
			return fmt.Errorf("cluster: Parallelism requires link PropDelay >= 1ns (it is the conservative lookahead)")
		}
	}
	return nil
}

// partition deals a valid fat-tree cfg's switches onto Parallelism LPs.
func (cfg Config) partition() netsim.FatTreePartition {
	s, _ := cfg.shape().Resolve()
	return netsim.FatTreePartition{Edges: s.Nodes / s.Hosts, Hosts: s.Hosts, Spines: s.Spines, Parts: cfg.Parallelism}
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
		return nil, fmt.Errorf("cluster: TryNew builds a sequential platform; Parallelism %d needs Assemble", cfg.Parallelism)
	}
	return assemble(k, nil, cfg)
}

// assemble is the one platform assembly: validate, grow the ring, build the
// fabric — on k, or on one LP of e per partition — apply the fault plan,
// then give every node its host and NIC on the kernel the fabric placed it
// on. Identical structural parameters under both engines are a precondition
// for identical virtual-time results.
func assemble(k *sim.Kernel, e *sim.Engine, cfg Config) (*Platform, error) {
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
	if e == nil {
		net = cfg.shape().Build(k, cfg.Profile.Link, cfg.SwitchDelay)
	} else {
		lps := make([]*sim.LP, cfg.Parallelism)
		for i := range lps {
			lps[i] = e.AddLP(fmt.Sprintf("part%d", i))
		}
		net = netsim.NewFatTreePar(lps, cfg.partition(), cfg.Profile.Link, cfg.SwitchDelay)
	}
	if cfg.Faults != nil {
		if err := net.ApplyFaults(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	pl := &Platform{K: net.K, Cfg: cfg, Net: net, Engine: e}
	for i := 0; i < cfg.Nodes; i++ {
		h := hostmodel.NewHost(pl.KernelOf(i), i, cfg.Profile)
		nic := lanai.New(h, net.Iface(i), cfg.NIC)
		nic.Start()
		pl.Hosts = append(pl.Hosts, h)
		pl.NICs = append(pl.NICs, nic)
	}
	return pl, nil
}

// Assemble builds cfg's platform on an engine of its own: a fresh sequential
// kernel, or, when cfg.Parallelism > 1, a parallel engine with one LP per
// partition — hosts and NICs constructed on their owning partition's kernel,
// trunk links crossing partitions as lookahead-bearing portals. Drive it
// with Platform.Run; per-node Procs must spawn on KernelOf(node).
func Assemble(cfg Config) (*Platform, error) {
	if cfg.Parallelism > 1 {
		return assemble(nil, sim.NewEngine(), cfg)
	}
	return TryNew(sim.NewKernel(), cfg)
}

// Nodes reports the node count.
func (pl *Platform) Nodes() int { return len(pl.Hosts) }
