// Session façade: the public entry point to the reproduction. A Session
// assembles a simulated cluster with ONE shared Fast Messages endpoint per
// node and attaches the requested services — MPI, sockets, shmem, global
// arrays, or custom handler spaces — to every node symmetrically, in the
// paper's §4.2 shared-substrate style:
//
//	s, err := fmnet.New(
//	    fmnet.Nodes(64),
//	    fmnet.Topology(fmnet.FatTree),
//	    fmnet.FM2(),
//	    fmnet.WithMPI(),
//	    fmnet.WithSockets(),
//	    fmnet.WithShmem(),
//	)
//	s.SpawnRanks("work", func(rank int, p *fmnet.Proc) {
//	    s.MPI(rank).Barrier(p)
//	    ...
//	})
//	err = s.Run()
//
// Co-resident services share the node's transport, handler table, and
// credit windows; handler IDs are namespaced per service so clients cannot
// collide, and budgeted extraction is charged fairly across them.
package fmnet

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/garr"
	"repro/internal/lanai"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/svcload"
	"repro/internal/xport"
)

// Re-exported types, so public clients program entirely against fmnet
// without reaching into internal packages.
type (
	// Proc is a simulated process: every callback runs on one.
	Proc = sim.Proc
	// Time is a virtual-time instant or duration in nanoseconds.
	Time = sim.Time

	// Endpoint is a node's shared fabric attachment.
	Endpoint = xport.Endpoint
	// HandlerSpace is one service's namespaced window onto an Endpoint.
	HandlerSpace = xport.HandlerSpace
	// HandlerID names a service-local message handler.
	HandlerID = xport.HandlerID
	// Handler processes one incoming message on a logical thread.
	Handler = xport.Handler
	// RecvStream is the pull interface a handler reads its message through.
	RecvStream = xport.RecvStream
	// SendStream is an open outgoing message, composed piecewise.
	SendStream = xport.SendStream

	// Comm is one rank's MPI communicator.
	Comm = mpifm.Comm
	// ReduceOp is an MPI reduction operator.
	ReduceOp = mpifm.ReduceOp
	// CollectiveAlgo selects the algorithm family a Comm's collectives use
	// (Comm.SetCollectiveAlgo).
	CollectiveAlgo = mpifm.CollectiveAlgo
	// Stack is one node's socket layer.
	Stack = sockfm.Stack
	// Conn is one end of an established socket stream.
	Conn = sockfm.Conn
	// Listener accepts inbound socket connections on a port.
	Listener = sockfm.Listener
	// ShmemNode is one rank's one-sided Put/Get attachment.
	ShmemNode = shmem.Node
	// Array is one rank's handle onto a block-distributed global array.
	Array = garr.Array
	// RPCFleet is the datacenter service-workload layer: one shard server
	// and one load-generating client per node, reporting virtual-time tail
	// latency (see Session.RPC).
	RPCFleet = svcload.Fleet
	// RPCConfig is the shard server's cost model.
	RPCConfig = svcload.ServiceConfig
	// RPCWorkload describes one generated request stream (arrival mode,
	// rate, fan-out, key skew, payload sizes).
	RPCWorkload = svcload.Workload
	// RPCArrival is the workload's arrival discipline (RPCOpen/RPCClosed/
	// RPCIncast).
	RPCArrival = svcload.Mode
	// RPCResult is a finished workload's deterministic report.
	RPCResult = svcload.Result
	// RPCTrace is a captured request schedule, replayable bit-identically.
	RPCTrace = svcload.Trace

	// Topo selects how the simulated fabric wires nodes together; its String
	// is the name scenario files and reports use.
	Topo = cluster.Topology
	// Fabric is the assembled network, exposed for fault and loss inspection.
	Fabric = netsim.Network
	// FaultPlan is a deterministic, seeded fault model for the fabric: a
	// seed and rules, whose flaps last as long as the run.
	FaultPlan = netsim.FaultPlan
	// FaultRule layers fault behavior onto links matched by name glob.
	FaultRule = netsim.FaultRule
	// LostFrame is one aggregated loss record from the fabric's registry.
	LostFrame = netsim.LostFrame
	// LinkStats counts traffic and faults through one link.
	LinkStats = netsim.LinkStats
	// NICStats counts one NIC's activity, including CRC drops. Its
	// RingDropped is always 0 (a full receive ring stalls the NIC, it never
	// drops) and stays because scenario reports print it.
	NICStats = lanai.Stats
)

// MPI receive wildcards, re-exported.
const (
	AnySource = mpifm.AnySource
	AnyTag    = mpifm.AnyTag
)

// Collective algorithm families, re-exported.
const (
	AlgoAuto              = mpifm.AlgoAuto
	AlgoFlat              = mpifm.AlgoFlat
	AlgoBinomial          = mpifm.AlgoBinomial
	AlgoRing              = mpifm.AlgoRing
	AlgoRecursiveDoubling = mpifm.AlgoRecursiveDoubling
)

// RPC arrival modes, re-exported.
const (
	// RPCOpen is open-loop Poisson arrivals (coordinated-omission-free).
	RPCOpen = svcload.ModeOpen
	// RPCClosed keeps one outstanding request per client.
	RPCClosed = svcload.ModeClosed
	// RPCIncast synchronizes every client onto one hot key.
	RPCIncast = svcload.ModeIncast
)

// Virtual-time units, re-exported.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Reduction operators, re-exported.
var (
	OpSumU32 = mpifm.OpSumU32
	OpMaxU32 = mpifm.OpMaxU32
	OpXor    = mpifm.OpXor
	OpSumF64 = mpifm.OpSumF64
)

// Send transmits buf as a single-piece message through a service space.
func Send(p *Proc, sp *HandlerSpace, dst int, h HandlerID, buf []byte) error {
	return xport.SendGather(p, sp, dst, h, buf)
}

// SendGather transmits the concatenation of pieces as one message — the
// header+payload pattern of every protocol layer.
func SendGather(p *Proc, sp *HandlerSpace, dst int, h HandlerID, pieces ...[]byte) error {
	return xport.SendGather(p, sp, dst, h, pieces...)
}

// The fabric topologies (see Topo).
const (
	// SingleSwitch hangs all nodes off one crossbar (the paper's cluster).
	SingleSwitch = cluster.SingleSwitch
	// Pair wires exactly two nodes back to back.
	Pair = cluster.DirectPair
	// Line chains switches: the one-trunk worst-case bisection.
	Line = cluster.Line
	// FatTree is a 2-level Clos with oversubscribed uplinks.
	FatTree = cluster.FatTree
	// Torus is a 2D wraparound switch mesh with dateline virtual channels.
	Torus = cluster.Torus2D
)

// config collects the functional options.
type config struct {
	nodes    int
	topo     Topo
	gen      xport.Gen
	mpi      bool
	sockets  bool
	shm      bool
	gaSize   int
	rpc      bool
	rpcCfg   svcload.ServiceConfig
	custom   []string
	faults   *netsim.FaultPlan
	parallel int
	fullBis  bool
}

// Option configures a Session under construction.
type Option func(*config)

// Nodes sets the cluster size (default 2).
func Nodes(n int) Option { return func(c *config) { c.nodes = n } }

// Topology selects the fabric (default SingleSwitch).
func Topology(t Topo) Option { return func(c *config) { c.topo = t } }

// FM1 backs the shared endpoints with Fast Messages 1.x through the
// staging-copy adapter, on the Sparc-era machine profile.
func FM1() Option { return func(c *config) { c.gen = xport.GenFM1 } }

// FM2 backs the shared endpoints with native Fast Messages 2.x on the
// PPro-era machine profile (the default).
func FM2() Option { return func(c *config) { c.gen = xport.GenFM2 } }

// WithMPI attaches the MPI service (point-to-point and collectives) to
// every node's endpoint.
func WithMPI() Option { return func(c *config) { c.mpi = true } }

// WithSockets attaches the Berkeley-style stream socket service.
func WithSockets() Option { return func(c *config) { c.sockets = true } }

// WithShmem attaches the one-sided Put/Get service; register symmetric
// regions on every node before Run.
func WithShmem() Option { return func(c *config) { c.shm = true } }

// WithGlobalArray attaches the Global Arrays service with one
// block-distributed float64 array of the given global element count (0
// attaches none; a negative count is an error, and so is one whose per-node
// block is more than a shmem region addresses).
func WithGlobalArray(size int) Option { return func(c *config) { c.gaSize = size } }

// WithRPC attaches the datacenter RPC service-workload layer: a shard
// server and a load-generating client per node, co-resident with the other
// services on the shared endpoint. A zero cfg uses the default cost model
// (2us per request); a negative ServiceTime is an error. Plan a workload on
// Session.RPC() before Run.
func WithRPC(cfg RPCConfig) Option {
	return func(c *config) { c.rpc, c.rpcCfg = true, cfg }
}

// WithService attaches a custom named service: every node gets a
// HandlerSpace (via Session.Space) to register raw FM-style handlers on.
func WithService(name string) Option {
	return func(c *config) { c.custom = append(c.custom, name) }
}

// WithFaults applies a deterministic fault schedule to the fabric: drops,
// corruption (dropped by the receiving NIC's CRC check), link flaps,
// outages, and stragglers, keyed by link-name glob and replayed
// bit-identically for a fixed plan seed.
func WithFaults(plan FaultPlan) Option {
	return func(c *config) { p := plan; c.faults = &p }
}

// Deprecated: every session runs on one kernel, so n is ignored (a negative
// n is still an error). Kept for benchmark/allreduce.go.
func WithParallel(n int) Option { return func(c *config) { c.parallel = n } }

// WithFullBisection wires as many fat-tree spines as hosts per edge
// (default is 2:1 oversubscribed uplinks). Only meaningful with FatTree.
func WithFullBisection() Option { return func(c *config) { c.fullBis = true } }

// Session is an assembled simulation: a cluster, one shared endpoint per
// node, and the co-resident services attached to each. All methods are for
// use before Run (setup) or from spawned Procs (steady state).
type Session struct {
	k      *sim.Kernel
	pl     *cluster.Platform
	eps    []*xport.Endpoint
	mpi    []*mpifm.Comm
	socks  []*sockfm.Stack
	shms   []*shmem.Node
	arrays []*garr.Array
	rpc    *svcload.Fleet
	custom map[string][]*xport.HandlerSpace
}

// New assembles a Session. Services are registered on every node in a
// fixed canonical order (MPI, sockets, shmem, global array, then custom
// services in option order), so handler-ID slabs agree across nodes.
func New(opts ...Option) (*Session, error) {
	cfg := config{nodes: 2, topo: SingleSwitch, gen: xport.GenFM2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.gaSize < 0 {
		return nil, fmt.Errorf("fmnet: WithGlobalArray(%d): negative element count", cfg.gaSize)
	}
	if cfg.parallel < 0 {
		return nil, fmt.Errorf("fmnet: WithParallel(%d): negative LP count", cfg.parallel)
	}
	if cfg.rpc && cfg.rpcCfg.ServiceTime < 0 {
		return nil, fmt.Errorf("fmnet: WithRPC: negative ServiceTime %v", cfg.rpcCfg.ServiceTime)
	}
	if !cfg.mpi && !cfg.sockets && !cfg.shm && cfg.gaSize == 0 && !cfg.rpc && len(cfg.custom) == 0 {
		return nil, errors.New("fmnet: no services requested; add WithMPI/WithSockets/WithShmem/WithGlobalArray/WithRPC/WithService")
	}
	if n := countServices(cfg); n > xport.MaxServices {
		return nil, fmt.Errorf("fmnet: %d services requested; an endpoint holds at most %d", n, xport.MaxServices)
	}
	seen := map[string]bool{mpifm.Service: true, sockfm.Service: true, shmem.Service: true,
		garr.Service: true, svcload.Service: true}
	for _, name := range cfg.custom {
		if seen[name] {
			return nil, fmt.Errorf("fmnet: duplicate or reserved service name %q", name)
		}
		seen[name] = true
	}

	m := cfg.gen.Machine()
	ccfg := m.Config(cfg.nodes, cfg.topo)
	ccfg.Faults = cfg.faults
	if cfg.fullBis {
		ccfg.Uplinks = ccfg.HostsPerSwitch
	}
	pl, err := cluster.Assemble(ccfg)
	if err != nil {
		return nil, err
	}
	s := &Session{
		k:      pl.K,
		pl:     pl,
		eps:    xport.AttachEndpoints(pl, m),
		custom: make(map[string][]*xport.HandlerSpace),
	}

	if cfg.mpi {
		s.mpi = mpifm.Attach(xport.Spaces(s.eps, mpifm.Service), m.Profile.MPI, mpifm.Options{})
	}
	if cfg.sockets {
		s.socks = make([]*sockfm.Stack, cfg.nodes)
		for i, sp := range xport.Spaces(s.eps, sockfm.Service) {
			s.socks[i] = sockfm.New(sp)
		}
	}
	if cfg.shm {
		s.shms = make([]*shmem.Node, cfg.nodes)
		for i, sp := range xport.Spaces(s.eps, shmem.Service) {
			s.shms[i] = shmem.Attach(sp)
		}
	}
	if cfg.gaSize > 0 {
		s.arrays = make([]*garr.Array, cfg.nodes)
		for i, sp := range xport.Spaces(s.eps, garr.Service) {
			a, err := garr.Attach(sp, 1, cfg.gaSize, cfg.nodes)
			if err != nil {
				return nil, err
			}
			s.arrays[i] = a
		}
	}
	if cfg.rpc {
		s.rpc = svcload.Attach(xport.Spaces(s.eps, svcload.Service), cfg.rpcCfg)
	}
	for _, name := range cfg.custom {
		s.custom[name] = xport.Spaces(s.eps, name)
	}
	return s, nil
}

// countServices is how many services New registers on every endpoint.
func countServices(cfg config) int {
	n := len(cfg.custom)
	for _, on := range [...]bool{cfg.mpi, cfg.sockets, cfg.shm, cfg.gaSize > 0, cfg.rpc} {
		if on {
			n++
		}
	}
	return n
}

// Kernel exposes the deterministic simulation kernel (prefer
// SpawnOn/SpawnRanks for node work).
func (s *Session) Kernel() *sim.Kernel { return s.k }

// Nodes reports the cluster size.
func (s *Session) Nodes() int { return len(s.eps) }

// Now reports current virtual time.
func (s *Session) Now() Time { return s.k.Now() }

// Spawn starts a simulated process at time zero, acting for no node (use
// SpawnOn for processes that drive a node).
func (s *Session) Spawn(name string, fn func(p *Proc)) { s.k.Spawn(name, fn) }

// SpawnOn starts a simulated process that acts for a node. It may call that
// node's services and no other's, and may change nothing another node's
// wait conditions read: those waits take their verdicts to stand until
// their own node acts (sim.Proc.ActsFor).
func (s *Session) SpawnOn(node int, name string, fn func(p *Proc)) {
	s.k.Spawn(name, fn).ActsFor(node)
}

// SpawnRanks starts one process per node, each told its rank, each acting
// for its node as SpawnOn's do.
func (s *Session) SpawnRanks(name string, fn func(rank int, p *Proc)) {
	ranks := make([]rankProc, s.Nodes())
	for r := range ranks {
		ranks[r] = rankProc{name: name, rank: r, fn: fn}
		p := s.k.Spawn("", ranks[r].run)
		p.NameBy(&ranks[r])
		p.ActsFor(r)
	}
}

// rankProc is one of SpawnRanks' processes: its rank, its body and its name,
// "name.rank", spelled only when something reads it.
type rankProc struct {
	name string
	rank int
	fn   func(rank int, p *Proc)
}

func (r *rankProc) run(p *Proc) { r.fn(r.rank, p) }

func (r *rankProc) String() string { return r.name + "." + strconv.Itoa(r.rank) }

// Run drives the simulation until every process completes.
func (s *Session) Run() error { return s.k.Run() }

// Endpoint returns a node's shared fabric attachment (per-service stats,
// raw extraction).
func (s *Session) Endpoint(node int) *Endpoint { return s.eps[node] }

// Fabric exposes the assembled network: per-link stats, the lost-frame
// registry, and credit-leak accounting — the loss accounting of a chaos
// scenario's report. What a hung run waits on is Kernel().HangReport().
func (s *Session) Fabric() *Fabric { return s.pl.Net }

// NICStats reports a node's NIC counters: CRC drops, and RingDropped, which
// is always 0 because a full ring stalls the NIC (see lanai.Stats).
func (s *Session) NICStats(node int) NICStats { return s.pl.NICs[node].Stats() }

// RingDepth reports packets currently waiting in a node's receive ring.
func (s *Session) RingDepth(node int) int { return s.pl.NICs[node].RingLen() }

// MPI returns a rank's communicator, or nil without WithMPI.
func (s *Session) MPI(rank int) *Comm {
	if s.mpi == nil {
		return nil
	}
	return s.mpi[rank]
}

// Sockets returns a node's socket stack, or nil without WithSockets.
func (s *Session) Sockets(node int) *Stack {
	if s.socks == nil {
		return nil
	}
	return s.socks[node]
}

// Shmem returns a node's one-sided attachment, or nil without WithShmem.
func (s *Session) Shmem(node int) *ShmemNode {
	if s.shms == nil {
		return nil
	}
	return s.shms[node]
}

// Array returns a node's global-array handle, or nil without
// WithGlobalArray.
func (s *Session) Array(node int) *Array {
	if s.arrays == nil {
		return nil
	}
	return s.arrays[node]
}

// RPC returns the service-workload fleet, or nil without WithRPC. Plan a
// workload before Run, spawn the per-node drivers with SpawnRPC (or call
// Fleet.RunNode from your own procs), then read Fleet.Result after Run.
func (s *Session) RPC() *RPCFleet { return s.rpc }

// SpawnRPC starts the fleet's per-node driver processes: the idiomatic way
// to run a planned RPC workload on a session.
func (s *Session) SpawnRPC() {
	for node := 0; node < s.Nodes(); node++ {
		s.SpawnOn(node, fmt.Sprintf("rpc.%d", node), func(p *Proc) { s.rpc.RunNode(p, node) })
	}
}

// Space returns a node's HandlerSpace for a custom service registered with
// WithService, or nil.
func (s *Session) Space(node int, service string) *HandlerSpace {
	spaces := s.custom[service]
	if spaces == nil {
		return nil
	}
	return spaces[node]
}
