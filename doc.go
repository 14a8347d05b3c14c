// Package fmnet is a from-scratch Go reproduction of "Efficient Layering
// for High Speed Communication: Fast Messages 2.x" (Lauria, Pakin, Chien —
// HPDC-7, 1998), exposed through a public session façade.
//
// The root package is the only public surface: fmnet.New assembles a
// simulated cluster with ONE shared Fast Messages endpoint per node and
// attaches the requested co-resident services —
//
//	s, err := fmnet.New(
//	    fmnet.Nodes(64),
//	    fmnet.Topology(fmnet.FatTree),
//	    fmnet.FM2(),
//	    fmnet.WithMPI(),
//	    fmnet.WithSockets(),
//	    fmnet.WithShmem(),
//	)
//
// — which is the paper's defining interface claim made structural: the
// messaging layer is a shared substrate multiplexed by handler dispatch,
// not a private NIC binding per library (§4.2).
//
// The system lives under internal/:
//
//   - internal/sim        deterministic discrete-event kernel
//   - internal/netsim     Myrinet fabric model: links, crossbar switches,
//     and the topology zoo — direct pair, single crossbar, switch line,
//     2-level fat tree (Clos), and 2D torus with dimension-order routing
//     over dateline virtual channels, all deadlock-free under link-level
//     back-pressure. A topology is decided here and nowhere else: adding
//     one is a wire function, a closed-form route function, a case in
//     Shape.Resolve and a row of the topologies table. Routes are computed,
//     not stored — Iface.Send writes each into an array the Packet owns
//     (recycled with it; never copy a Packet by value)
//   - internal/hostmodel  machine cost profiles (sparc, ppro200)
//   - internal/lanai      NIC model
//   - internal/flowctl    what both FM generations share: the endpoint core
//     they embed (EndpointCore), its credit plane (Plane), the ledger (Manager)
//   - internal/fm1        Fast Messages 1.x (contiguous buffers, staged delivery)
//   - internal/fm2        Fast Messages 2.x (the paper's contribution:
//     streaming gather/scatter, handler multithreading, paced extraction,
//     host-memcpy loopback self-sends)
//   - internal/xport      the unified streaming transport contract — one
//     Transport interface implemented natively by fm2 and via a
//     staging-copy adapter by fm1 — plus the shared-endpoint layer:
//     Endpoint (one Transport per node) and HandlerSpace (one namespaced
//     service window per client, with budget-fair Extract)
//   - internal/mpifm      MPI (point-to-point + collectives), bound to a HandlerSpace
//   - internal/sockfm     Sockets-FM, bound to a HandlerSpace
//   - internal/shmem      one-sided Put/Get, bound to a HandlerSpace
//   - internal/garr       Global Arrays (its own service over a private shmem node)
//   - internal/cluster    assembles hosts + NICs + fabric into a Platform
//   - internal/bench      the measurement harness and the reports built
//     on it: figure/table regeneration, collective scaling, the
//     layering-efficiency matrix, the contention-aware fabric suite, the
//     mixed-workload co-residency suite (fmbench -mixed), the RPC tail
//     sweep (fmbench -svc) — all virtual time, all under byte-exact goldens
//     — and the one wall-clock suite, the allreduce scale ladder
//     (fmbench -perf); host cost of everything else is benchmark/'s question.
//     A variant is a table row: AllCollectives, AllLayers (the bare xport
//     window is the first), mixedWorkloads; fmbench's reports likewise
//   - internal/scenario   the declarative chaos layer: JSON scenario specs
//     (cluster shape, traffic pattern — one row of the patterns table in
//     pattern.go — seeded fault schedule, assertions),
//     a virtual-time watchdog that converts hangs into diagnosed reports,
//     and the campaign runner (fmbench -scenario / -campaign)
//
// Every upper layer binds to a HandlerSpace — a service's window onto its
// node's shared endpoint — so co-resident services cannot collide on
// handler IDs, share one credit window per peer, and split the receive
// budget fairly:
//
//	 mpifm   sockfm   shmem   garr(-> own shmem)
//	    |       |       |       |
//	HandlerSpace  (one namespaced slab per service)
//	    \       |       |       /
//	     +------+---+---+------+
//	                |
//	         xport.Endpoint          (ONE per node)
//	                |
//	         xport.Transport
//	           /          \
//	    OverFM1 adapter   OverFM2 (native)
//	    (staging copies)   (zero-copy streaming)
//	          |                  |
//	      internal/fm1      internal/fm2
//
// There is one way to assemble that picture, and fmnet.New and
// internal/bench's world builder are the only two places that use it (no
// upper layer builds a machine): xport.Gen.ClusterConfig prepares the
// generation's machine at a node count and topology (cluster.Config maps onto
// a netsim.Shape, which owns every fabric-shape rule; cluster.Config.Validate
// adds the 65 536-node bound of the headers' 16-bit node field),
// cluster.Assemble builds the platform on the sequential kernel or the
// parallel engine, xport.AttachEndpoints puts one endpoint on
// every node, xport.Spaces registers a service on all of them, and the
// layer's single constructor (mpifm.Attach, sockfm.New, shmem.Attach,
// garr.Attach, svcload.Attach) binds to the spaces. The machine a
// generation runs on — FM 1.x on the Sparc profile, FM 2.x on the PPro —
// is xport.Gen.Profile and mpifm.OverheadsFor, nowhere else.
//
// The harness that prices the layers is written the same way — a
// measurement is a world, a traffic shape and a clock, each once. One
// helper builds the world for either generation and either engine; one
// raw-FM stream driver and one ping-pong run over a three-operation
// adapter (send, extract, deliver — all that fm1 and fm2 spell
// differently); one flow skeleton carries the bare-window baseline and all
// four upper layers, each contributing only its two procs; one
// barrier-aligned collective body serves the scaling figures and both
// engines' perf rows. fmbench's stdout is held byte for byte to goldens
// under cmd/fmbench/testdata (go test ./cmd/fmbench -update rewrites them).
// The paper's numbers are one table, bench.Claims (internal/bench/paper.go):
// the figures and fmbench -headline print their paper values from it, and
// go test ./internal/bench -run TestPaperClaims -v sets paper against
// simulation row by row.
//
// Below the transport, what the paper's §4 says FM 2.x kept from FM 1.x —
// reliable in-order delivery, sender flow control, extraction decoupled from
// sending (§3.1) — is one copy of code, flowctl.EndpointCore, embedded by
// value in fm1.Endpoint and fm2.Endpoint: host and NIC, the credit plane
// (flowctl.Plane), the data-frame pool and its modes, one Stats type, the
// header layout as data (flowctl.Wire) and the per-packet steps Emit, Next
// and Open. The engines read as Table 1 and Table 2 — what changed — and an
// engine-level change (a per-packet charge, a header field, a trace hook, a
// pool mode) has one site, internal/flowctl/core.go. xport.Transport is
// accordingly four methods: Core (everything both engines answer the same
// way), Register, BeginMessage and ExtractWait (a nil waiter is FM_extract).
//
// # Fault model and chaos campaigns
//
// FM assumes a reliable, FIFO fabric and has no retransmit or timeout
// (paper §3.1); the fault layer honors that instead of hiding it. WithFaults
// applies a deterministic, seeded schedule to the fabric — probabilistic
// drops and bit-flips, exponential link flaps, outages that may never heal,
// and slowed links — each link drawing from its own RNG stream derived from
// the plan seed and the link's name, so fault patterns are decorrelated
// across links yet bit-identical across runs. Corrupted frames are marked
// in flight and discarded by the receiving NIC's link-level CRC check
// before DMA (NICStats.CRCDropped): garbage never reaches the FM engines.
// A silently dropped data frame leaks the sender's flow-control credit
// forever — under closed-loop traffic the protocol wedges, by design. The
// fabric keeps a loss registry by (src, dst, ctrl, cause) with credit-leak
// accounting (Fabric.LostFrames, LeakedCredits, LostCreditReturns), and
// internal/scenario's virtual-time watchdog converts the wedge into a
// machine-readable hang diagnostic: last event time, waiting ranks,
// per-node ring depths, parked streams, and outstanding credits. Campaigns
// (directories of scenario files, fmbench -campaign) replay byte-
// identically under one seed; CI pins the committed smoke campaign against
// its golden report.
//
// # Service workloads
//
// WithRPC attaches a datacenter-style request/response load generator
// (internal/svcload) to the session: every node runs a key-sharded server,
// and every node's client issues requests whose keys follow a seeded Zipf
// popularity curve, fanned out to Fanout consecutive replicas and gathered
// before the request counts as complete. Three arrival disciplines —
// open-loop Poisson (arrivals don't wait for completions, so queueing
// delay lands in the tail), closed-loop chains (one outstanding request
// per client), and synchronized incast epochs (every client hits one
// victim key on a common clock) — exercise the fabric the way a service
// mesh does rather than the way a collective does. Latencies are recorded
// in VIRTUAL nanoseconds into mergeable log-bucketed histograms, so
// p50/p99/p999 are bit-deterministic functions of (workload, seed) and
// the `fmbench -svc` table is held to a golden. Workloads can
// be captured to a JSONL trace (header + per-request arrival rows) and
// replayed onto a fresh cluster: a replay must reproduce the original
// run's report exactly, which is the capture-fidelity contract tier-1 pins
// (`fmbench -svccapture` / `-svcreplay`). Under fault injection the
// workload degrades honestly instead of wedging: a Drain window bounds
// every credit-gate and completion wait, lost requests are counted
// Abandoned and excluded from the histogram, and the rpc scenario pattern
// (internal/scenario) asserts tail budgets (max_p99_ms, min_completed)
// next to the chaos assertions — campaigns/svc is the committed campaign.
//
// # Performance
//
// The steady-state message path performs zero allocations, mirroring the
// paper's buffer-management discipline inside the simulator itself. Framed
// packets recirculate through bounded per-endpoint pools
// (netsim.FramePool): the sender writes header and payload into the frame
// in place and hands ownership to the NIC; the fabric owns frames in
// flight (links release what they drop); the receiver releases each frame
// back to its sender's pool after the last byte is consumed. Handlers may
// read payload only through their stream and only until they return — no
// layer may retain payload aliases past that point, and the engines'
// PoisonFrames debug mode overwrites recycled buffers so any violation
// reads poison rather than stale data. Stream records, handler worker
// coroutines, accounting wrappers, staging and header buffers all recycle
// the same way, and so do the kernel's own coroutines. The upper layers hold
// to it too: a handler pulls its wire header with xport.ReceiveHeader into
// scratch carried by its run's recycled stream wrapper (poisoned on return),
// MPI collective legs run on recycled Request records and unexpected
// messages on pooled buffers, and the socket, SHMEM, Global Arrays and RPC
// layers keep their send headers and per-call records in scratch they own —
// one ZeroAlloc pin per layer, over both FM generations. The kernel passes
// its control token by coroutine switch, never through the Go scheduler:
// each goroutine Proc runs on a coroutine (iter.Pull) taken from a
// process-wide free list at its first wake and given back when it ends, and
// Run's goroutine is the one driver that resumes them (a yield to it and a
// resume from it per wake of another Proc, none when a parking Proc's own
// wake is next; hole-sifting event heap, poll ticks in per-period FIFO
// lanes beside it, ring-buffer channels).
//
// The kernel's guarantee is that at most one Proc executes at any instant.
// Two kinds of event cost no coroutine switch at all, because the dispatcher
// — on whichever goroutine holds the control token — runs them itself. The
// hardware is the first: NIC send and receive firmware (internal/lanai) and
// the per-port switch forwarders and the links they transmit on
// (internal/netsim) are sim.Machines, Procs without a coroutine whose
// run-to-completion Step does what the loop `Recv; Delay; Send` does between
// two parks and arms the next wake with the half of Delay, Chan.Recv,
// Chan.Send or Resource.Acquire that comes before its park (StartDelay,
// StartRecv, StartSend, StartAcquire). They wait in the same queues and are
// woken by the same events as the goroutine daemons they replaced, so every
// wake is queued at the same instant in the same order and the (t, seq)
// schedule is the same one; a link's send logic exists once, as the
// resumable netsim.Tx the Machines embed and the blocking Link.Send and
// Iface.Send drive with a park between steps. What still runs on coroutines
// is what the paper says blocks: application Procs, and FM 2.x handler
// workers, which run a user handler that stops mid-Receive by design — and
// those are given their coroutine at their first wake, so building a
// simulation starts none, and a second simulation reuses the first one's.
//
// Waiting is the second. FM's receive model is polling: a rank blocked in
// MPI_Recv, a socket read or a SHMEM quiet re-enters FM_extract every
// PollEmpty of virtual time, and every such empty poll is a kernel event. Every blocking wait of every upper layer is
// one call, xport.HandlerSpace.Wait(p, budget, cond), and while the wait
// is idle — receive ring and control queue empty, no withheld credit batch
// to flush, cond still false — its poll ticks are taken by the kernel's
// dispatcher (sim.Proc.PollCycle, called from flowctl.EndpointCore.Next)
// instead of by the polling Proc's coroutine. The idle test therefore runs
// in dispatcher context, on whichever goroutine holds the control token;
// it only reads, and only state of the Proc's own node, so nothing
// observes the difference and it stays LP-local under the parallel engine.
// No event is elided: each tick is still one event, re-armed at the moment
// the Proc would have re-armed it, so it takes the same seq and FIFO order
// among equal timestamps — the norm when 256 ranks enter a round together —
// is untouched. Computing the next useful tick ahead of time would queue
// the wake at a different moment and the schedule would no longer be
// provably the same. What a tick does not do is enter the event heap: ticks
// wait in one FIFO lane per poll period, each already in (t, seq) order
// because it is filled at now+period with ever-growing seq, and the
// dispatcher takes the least of the heap top and the lane heads — the order
// one heap would pop, without sifting a tick per blocked rank through it.
//
// A service with other work between polls paces itself — Extract, its own
// work, Delay(gap): two events per idle turn — and that loop is one call
// too, xport.HandlerSpace.WaitPaced (svcload's node loop, scenario's rank
// waits). The dispatcher takes both ticks of its idle turns, re-arming the
// empty poll and the pause for one another, under the same idle test plus
// what such a loop acts on besides the ring: work pending for the turn, a
// deadline reached, a last pause that must be cut short. The Proc is woken
// inside the extract and told which tick it was. At the end of a poll the
// extract returns as ever and the turn goes on; at the end of a pause the
// turn is already paid for and the loop goes to its head. Loops that test
// their condition between the poll and the pause (Extract; if !done {
// Delay }, as the benchmark drivers, internal/bench and examples/quickstart
// write it) are a different schedule and keep calling Extract, which charges
// exactly one empty poll through the same path.
//
// None of this changes virtual time: conformance and determinism results
// are bit-identical to the copying engine's. The wall-clock consequences
// each have one instrument: ~10M kernel events/sec, the two-node steady
// state, the RPC rate ladder and the campaigns are `go run ./benchmark`
// (BENCHMARK.json; repetitions and quartiles); 0 allocs/op on the message
// path, engines and upper layers alike, is the ZeroAlloc pins (CI's
// alloc-gate job); 64- to 4096-rank allreduce
// on the multi-stage fabrics is `fmbench -perf -json BENCH_PR<n>.json`,
// which writes the machine-readable trajectory, and tier-1 holds the newest
// committed report to the one before it (TestGateCommittedTrajectory, by the
// rules at the top of internal/bench/gate.go).
//
// # Parallel engine
//
// WithParallel(n) partitions a fat-tree cluster into n logical processes
// — contiguous blocks of edge subtrees (each edge switch with its hosts
// and NICs; spine switches dealt round-robin) — and runs each LP's event
// heap and virtual clock on its own goroutine (internal/sim.Engine).
// Synchronization is conservative, window-barrier style (LBTS/YAWNS
// rather than per-channel null messages): each round, the engine computes
// the least upper bound W = min over LPs of their next event time, plus
// the minimum cross-LP lookahead, and every LP processes events strictly
// before W in parallel. The lookahead is physical: a frame crossing an
// LP boundary travels an edge<->spine trunk, so its arrival lies at least
// one trunk propagation delay in the future. Cross-LP trunks become
// portals (internal/sim.Portal) that post the arrival into the peer LP's
// heap at the exact virtual time the fused fabric would have used, with
// the fault RNG drawn in the same order — link names, routes, and
// per-link-name RNG streams are identical to the sequential build, which
// is why fault patterns stay decorrelated per link regardless of the
// partition.
//
// Virtual time is therefore bit-identical to the sequential kernel, with
// one physically honest exception: reverse back-pressure across a cut has
// zero lookahead (a full input queue on LP B stalls a transmitter on LP A
// "now"), which no conservative scheme can reproduce. The engine detects
// the case instead of approximating it — an arrival that finds its
// downstream port queue full counts a cut stall, and Network.Certified()
// reports whether a run was provably identical to the sequential engine.
// Congestion-free shapes (WithFullBisection, deeper WithLinkSlots) stay
// certified; the conformance suites pin those shapes and require
// byte-equal results, while oversubscribed default shapes report their
// stalls honestly. `go run ./benchmark -workload allreduce-fattree -trace 1`
// is the one measurement of the engine: it reports sim.engine.speedup_x,
// .certified and .cut_stalls against the same run on one kernel.
//
// See README.md.
package fmnet
