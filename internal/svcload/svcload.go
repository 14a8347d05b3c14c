// Package svcload is the datacenter service-workload layer of the
// reproduction: it simulates replicated request/response services running
// over the shared per-node Fast Messages endpoints, and reports
// TAIL LATENCY — p50/p99/p999 in virtual time — instead of bandwidth. The
// paper's §4.1 pacing and flow-control story is a latency story at scale:
// under skewed key popularity and fan-out, the question is not how many
// MB/s the fabric moves but what the 99.9th-percentile request experiences
// when a hot shard's credit window backs up.
//
// The model: every node of a cluster hosts one shard server and one client.
// Clients issue requests against a keyspace with Zipf-skewed popularity;
// each request fans out into one sub-request per replica of its key
// (replica j of key k lives on node (k+j) mod n) and completes when the
// last sub-response is gathered. Three arrival modes:
//
//   - open: per-client Poisson arrivals at a fixed rate. Latency is
//     measured from the SCHEDULED arrival, not the actual send, so a client
//     stalled by its own earlier work still charges the delay to the tail
//     (no coordinated omission).
//   - closed: each client keeps exactly one request outstanding, issuing
//     the next the moment the previous completes. Latency from issue time.
//   - incast: every client fires at the SAME key at the SAME instant on a
//     fixed epoch clock — the synchronized fan-in storm that turns shallow
//     switch queues into tail spikes.
//
// Every request stream is derived from (seed, client) with decorrelated
// sub-streams for arrivals and keys, all timing is virtual, and latency
// histograms are integer log-buckets (Hist), so a run's report is
// bit-identical across repetitions, and a captured trace (see trace.go)
// replays to the exact same report. The fleet holds no schedule: a
// generated client keeps its two samplers and its last arrival, and draws
// each request as it sends it, so a fleet's memory is what is live, not
// what is planned. Only a replayed trace holds its records, and the replay
// horizon binds traces only: Capture and ReadTrace refuse an instant past it.
//
// Like every other service in this codebase, the RPC layer binds to a
// HandlerSpace on the node's shared endpoint — it co-resides with MPI,
// sockets, and shmem rather than owning the NIC. The package builds no
// machine: whoever assembled the endpoints (a session's fmnet.WithRPC, the
// bench harness) attaches a Fleet to their spaces, plans it, and spawns one
// RunNode Proc per node. Clients, servers, and histograms share state under
// the kernel's single-threaded event schedule.
package svcload

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xport"
)

// Service is the canonical endpoint-service name the RPC layer registers
// under on a shared per-node endpoint.
const Service = "rpc"

// Service-local handler slots.
const (
	reqHandler  xport.HandlerID = 1
	respHandler xport.HandlerID = 2
)

// Wire headers. Request: reqID(8) client(4) respBytes(4); response: reqID(8).
const (
	reqHeaderSize  = 16
	respHeaderSize = 8
)

// pollGap paces a node's event loop (Fleet.await) between arrivals: small
// enough that server extraction latency stays in the noise of the modeled
// service time, large enough to bound event volume over a millisecond-scale
// run.
const pollGap = 1 * sim.Microsecond

// Mode selects the arrival model.
type Mode string

const (
	// ModeOpen is open-loop Poisson arrivals per client.
	ModeOpen Mode = "open"
	// ModeClosed keeps one outstanding request per client.
	ModeClosed Mode = "closed"
	// ModeIncast synchronizes every client onto one key on an epoch clock.
	ModeIncast Mode = "incast"
)

// ServiceConfig is the server-side cost model: the virtual compute a shard
// spends on each sub-request before replying.
type ServiceConfig struct {
	// ServiceTime is the fixed per-request compute.
	ServiceTime sim.Time
}

// DefaultServiceConfig models a light in-memory lookup service: 2us fixed.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{ServiceTime: 2 * sim.Microsecond}
}

// Workload describes one generated request stream.
type Workload struct {
	// Mode is the arrival model (default ModeOpen).
	Mode Mode
	// Requests is the per-client request count.
	Requests int
	// RateRPS is the per-client arrival rate in requests per virtual
	// second (open and incast modes).
	RateRPS float64
	// Fanout is the sub-requests per request (replicas gathered), 1..nodes.
	Fanout int
	// Keyspace is the number of distinct keys (default 256).
	Keyspace int
	// ZipfS is the key-popularity skew exponent (0 = uniform).
	ZipfS float64
	// ReqBytes / RespBytes are payload sizes past the RPC headers.
	ReqBytes  int
	RespBytes int
	// Seed derives every per-client arrival and key stream.
	Seed int64
	// Drain, when nonzero, bounds how long each client keeps serving after
	// its last arrival: outstanding requests past the window are abandoned
	// (counted, excluded from the histogram) instead of hanging the run.
	// The same window bounds every wait at the credit gate and the
	// closed-loop completion wait — under fault injection a destroyed frame
	// leaks its credits forever, so an unbounded wait is a wedge. Required
	// when faults are present.
	Drain sim.Time
}

// withDefaults normalizes optional fields.
func (wl Workload) withDefaults() Workload {
	if wl.Mode == "" {
		wl.Mode = ModeOpen
	}
	if wl.Keyspace == 0 {
		wl.Keyspace = 256
	}
	if wl.Fanout == 0 {
		wl.Fanout = 1
	}
	return wl
}

// Validate applies the defaults and checks the workload against a fleet of
// n nodes, as Plan does, for callers that validate before building one.
func (wl Workload) Validate(n int) error { return wl.withDefaults().validate(n) }

// maxKeyspace bounds Keyspace: the fleet's key table, which every client's
// sampler shares, holds a cumulative weight of 8 bytes per key, so at the
// bound it is 512 KiB, where 2e10 keys asked for 160 GB. Every committed
// workload uses 256 keys or fewer.
const maxKeyspace = 1 << 16

// validate checks the workload against a fleet of n nodes.
func (wl Workload) validate(n int) error {
	switch wl.Mode {
	case ModeOpen, ModeClosed, ModeIncast:
	default:
		return fmt.Errorf("svcload: unknown mode %q", wl.Mode)
	}
	if wl.Requests <= 0 {
		return fmt.Errorf("svcload: requests must be > 0")
	}
	// The mean gap between arrivals, ns, is positive (NaN and an infinite
	// rate fail) and at most the replay horizon: a slower rate is a typo,
	// and at 1e-300 rps an arrival's conversion to int64 overflowed to near 0.
	if gap := 1e9 / wl.RateRPS; wl.Mode != ModeClosed && !(gap > 0 && gap <= float64(replayHorizon)) {
		return fmt.Errorf("svcload: %s mode needs a finite rate_rps of at least one request per %v", wl.Mode, replayHorizon)
	}
	if wl.Fanout < 1 || wl.Fanout > n {
		return fmt.Errorf("svcload: fanout %d outside [1, %d]", wl.Fanout, n)
	}
	if wl.Keyspace < 1 || wl.Keyspace > maxKeyspace {
		return fmt.Errorf("svcload: keyspace %d outside [1, %d]", wl.Keyspace, maxKeyspace)
	}
	if wl.ZipfS < 0 {
		return fmt.Errorf("svcload: zipf exponent must be >= 0")
	}
	if wl.ReqBytes < 0 || wl.RespBytes < 0 {
		return fmt.Errorf("svcload: negative payload size")
	}
	if wl.Drain < 0 {
		return fmt.Errorf("svcload: negative time field")
	}
	return nil
}

// req is one request: what a client draws, or a replayed trace's record.
type req struct {
	T     sim.Time // scheduled arrival; 0 = closed-loop (issue on previous completion)
	Key   int
	Fan   int
	ReqB  int
	RespB int
}

// inflight tracks one issued request awaiting its sub-response gather.
type inflight struct {
	t0        sim.Time
	remaining int
}

// pendingReply is one computed-but-unsent shard response. Handlers never
// send: a reply issued from inside Extract could block on an exhausted
// credit window while every other node does the same, and with no proc left
// extracting, no credits ever return — the classic all-senders-stalled
// deadlock. Instead handlers enqueue, and the node's main loop flushes the
// queue only when the destination window has room (see creditReady).
type pendingReply struct {
	dst   int
	id    uint64
	respB int
}

// waitFor says what a node's event loop is waiting for (Fleet.await). It is
// a tagged value rather than a closure because the wait's condition is kept
// where the kernel's dispatcher can evaluate it, and a closure kept anywhere
// is a malloc per wait.
type waitFor struct {
	kind waitKind
	dst  int    // forCredit: the destination whose window must open ...
	size int    // ... for a message of this many bytes
	id   uint64 // forGather: the request whose last sub-response is awaited
}

type waitKind uint8

const (
	forArrival waitKind = iota // nothing: the deadline is the next arrival, and only it ends the wait
	forCredit
	forGather
	forAll // every client done and nothing outstanding anywhere
)

// nodeWait is one node's side of xport.HandlerSpace.WaitPaced: the condition
// of the wait the node is in, and the reply flush as the work of every turn.
// The fleet holds one per node for its lifetime.
type nodeWait struct {
	f    *Fleet
	node int
	waitFor
}

// Done is the wait's condition. O(1) and read-only: the dispatcher asks.
func (w *nodeWait) Done() bool {
	f := w.f
	switch w.kind {
	case forCredit:
		return f.creditReady(w.node, w.dst, w.size)
	case forGather:
		_, waiting := f.pending[w.node][w.id]
		return !waiting
	case forAll:
		return f.allDone()
	}
	return false
}

// Global says that the wait for global completion reads every node's state
// (xport.GlobalCond): another node's last reply can end it, so its verdict
// stands for one tick only.
func (w *nodeWait) Global() bool { return w.kind == forAll }

// Pending and Do are the turn's work. A queued reply counts as pending even
// while its client's window is shut: the flush must retry it every turn.
func (w *nodeWait) Pending() bool  { return w.f.replyQ[w.node].Len() > 0 }
func (w *nodeWait) Do(p *sim.Proc) { w.f.flushReplies(p, w.node) }

// nodeHdrs is one node's send-header scratch: a header built on the stack
// escapes through the Transport interface it is gathered into, a malloc per
// message. Nothing re-enters either array while it is live. A node's one Proc
// builds req in issue and sends it once per sub-request; the awaits between
// those sends run flushReplies, which builds and sends resp, and handlers,
// which never send. The transport copies a header before the send returns.
type nodeHdrs struct {
	req  [reqHeaderSize]byte
	resp [respHeaderSize]byte
}

// Fleet is the assembled RPC service across a cluster: one shard server and
// one client per node, bound to the nodes' shared endpoints.
type Fleet struct {
	cfg    ServiceConfig
	spaces []*xport.HandlerSpace

	wl      Workload
	clients []client // a generated workload's draw state, one per node
	trace   *Trace   // a replayed workload's records; nil when generated

	// Runtime state, shared by all node procs under the kernel's
	// deterministic schedule.
	pending   []map[uint64]inflight
	replyQ    []sim.Queue[pendingReply]
	waits     []nodeWait
	hdrs      []nodeHdrs
	hists     []*Hist
	served    []int64
	finished  int // clients that finished issuing
	planned   int64
	issued    int64
	subSent   int64
	completed int64
	abandoned int64
	failed    int64
	lastNS    sim.Time // virtual time of the last completion
	errs      []string

	body []byte // shared zero payload (senders copy synchronously)
}

// Attach installs the RPC service on every node's handler space. Spaces
// must come from the same symmetric registration order on every node, as
// with every endpoint service. A zero cfg is DefaultServiceConfig.
func Attach(spaces []*xport.HandlerSpace, cfg ServiceConfig) *Fleet {
	if (cfg == ServiceConfig{}) {
		cfg = DefaultServiceConfig()
	}
	n := len(spaces)
	f := &Fleet{
		cfg:     cfg,
		spaces:  spaces,
		pending: make([]map[uint64]inflight, n),
		replyQ:  make([]sim.Queue[pendingReply], n),
		waits:   make([]nodeWait, n),
		hdrs:    make([]nodeHdrs, n),
		hists:   make([]*Hist, n),
		served:  make([]int64, n),
	}
	for node := 0; node < n; node++ {
		node := node
		f.pending[node] = make(map[uint64]inflight)
		f.waits[node] = nodeWait{f: f, node: node}
		f.hists[node] = newHist()
		spaces[node].Register(reqHandler, func(p *sim.Proc, s xport.RecvStream) {
			f.serveRequest(p, node, s)
		})
		spaces[node].Register(respHandler, func(p *sim.Proc, s xport.RecvStream) {
			f.gatherResponse(p, node, s)
		})
	}
	return f
}

// Nodes reports the fleet size.
func (f *Fleet) Nodes() int { return len(f.spaces) }

// seedFor decorrelates per-client RNG streams, in the repo's established
// seed-XOR-fnv idiom, so arrival and key draws never share a stream.
func seedFor(seed int64, kind string, client int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "svc:%s:%d", kind, client)
	return seed ^ int64(h.Sum64())
}

// client is one generated client's draw state: its two samplers and its
// last arrival. Request seq is drawn when the client sends it, in seq order.
type client struct {
	arr  *trafficgen.ExpSampler  // open: inter-arrival gaps
	keys *trafficgen.ZipfSampler // open and closed: key popularity
	t    float64                 // open: the last arrival drawn, ns
}

// newClients seeds the draw state of wl's n clients. Their key samplers
// share one table, each with its own stream.
func newClients(wl Workload, n int) []client {
	cs := make([]client, n)
	var keys *trafficgen.ZipfTable
	if wl.Mode != ModeIncast { // incast: every client, key 0
		keys = trafficgen.NewZipfTable(wl.Keyspace, wl.ZipfS)
	}
	for c := range cs {
		if wl.Mode == ModeOpen {
			cs[c].arr = trafficgen.NewExp(seedFor(wl.Seed, "arrival", c), 1e9/wl.RateRPS)
		}
		if keys != nil {
			cs[c].keys = keys.Sampler(seedFor(wl.Seed, "key", c))
		}
	}
	return cs
}

// draw returns the client's request seq of wl, the one after its last.
func (cl *client) draw(wl *Workload, seq int) req {
	r := req{Fan: wl.Fanout, ReqB: wl.ReqBytes, RespB: wl.RespBytes}
	switch wl.Mode {
	case ModeOpen:
		cl.t += cl.arr.Next()
		r.T = sim.Time(int64(cl.t)) + 1 // floor at >= 1ns: T=0 means closed-loop
		r.Key = cl.keys.Next()
	case ModeClosed:
		r.Key = cl.keys.Next()
	case ModeIncast:
		// Every client, same key, same epoch instants: the storm.
		r.T = sim.Time(seq+1) * max(sim.Time(int64(1e9/wl.RateRPS)), 1)
	}
	return r
}

// Plan arms the fleet with a generated workload. It draws nothing: each
// client draws a request when it sends it. Plan (or PlanTrace) must be
// called before any RunNode proc starts.
func (f *Fleet) Plan(wl Workload) error {
	wl = wl.withDefaults()
	n := len(f.spaces)
	if err := wl.validate(n); err != nil {
		return err
	}
	return f.install(wl, newClients(wl, n), nil, int64(n)*int64(wl.Requests), max(wl.ReqBytes, wl.RespBytes))
}

// install arms the fleet with its clients' draw state or a replayed trace,
// planned requests in all. It rejects message sizes the transport could
// never move without wedging the credit gate: a single message may not need
// more packets than the whole flow-control window.
func (f *Fleet) install(wl Workload, clients []client, tr *Trace, planned int64, maxBody int) error {
	sp := f.spaces[0]
	// Compared before the header is added: a replayed size near MaxInt
	// would wrap the sum negative and slip past.
	if maxBody > sp.Core().MaxMessage()-reqHeaderSize {
		return fmt.Errorf("svcload: %d-byte payload plus header exceeds transport limit %d", maxBody, sp.Core().MaxMessage())
	}
	maxMsg := reqHeaderSize + maxBody
	if need, window := sp.Core().Packets(maxMsg), sp.Core().FlowControl().Window(); need > window {
		return fmt.Errorf("svcload: %d-byte message needs %d packets, credit window is %d",
			maxMsg, need, window)
	}
	f.wl, f.clients, f.trace = wl, clients, tr
	f.planned = planned
	f.body = make([]byte, maxBody)
	return nil
}

// requests is client c's request count.
func (f *Fleet) requests(c int) int {
	if f.trace != nil {
		return len(f.trace.sched[c])
	}
	return f.wl.Requests
}

// request is client c's request seq: a replayed record, or drawn now.
// RunNode asks for each seq once, in order.
func (f *Fleet) request(c, seq int) req {
	if f.trace != nil {
		return f.trace.sched[c][seq]
	}
	return f.clients[c].draw(&f.wl, seq)
}

// Planned reports the scheduled request total.
func (f *Fleet) Planned() int64 { return f.planned }

// reqID packs (client node, sequence) into the wire request ID.
func reqID(node, seq int) uint64 { return uint64(node)<<32 | uint64(uint32(seq)) }

// creditReady reports whether node can open a size-byte message toward dst
// without blocking on flow control (flowctl.EndpointCore.Packets). Loopback
// never consumes credits.
func (f *Fleet) creditReady(node, dst, size int) bool {
	if dst == node {
		return true
	}
	c := f.spaces[node].Core()
	return c.FlowControl().Available(dst) >= c.Packets(size)
}

// await is the one wait of a node's event loop, bounded and paced: until the
// node has what it waits for, a turn every pollGap services the network —
// which both runs this node's shard handlers and drains credit refills into
// the flow-control ledger — and flushes any replies the handlers computed.
// It gives up, reporting false, once virtual time has reached deadline (0:
// never); a wait for an arrival cuts its last pause short so that it ends
// there exactly. The loop itself is xport's (WaitPaced), where an idle turn
// costs this node's Proc nothing.
func (f *Fleet) await(p *sim.Proc, node int, deadline sim.Time, what waitFor) bool {
	w := &f.waits[node]
	w.waitFor = what
	return f.spaces[node].WaitPaced(p, 0, w, xport.Pace{
		Gap: pollGap, Deadline: deadline, Clamp: what.kind == forArrival, Work: w,
	})
}

// flushReplies sends queued shard responses in FIFO order, charging each
// one's service time as it leaves — the single-CPU server model: queued
// requests serialize behind the one being computed. A reply whose client
// window is full stays queued; the next turn retries after extraction has had
// a chance to return credits.
func (f *Fleet) flushReplies(p *sim.Proc, node int) {
	q := &f.replyQ[node]
	for q.Len() > 0 {
		if r := q.Front(); !f.creditReady(node, r.dst, respHeaderSize+r.respB) {
			return
		}
		r := q.Pop()
		if d := f.cfg.ServiceTime; d > 0 {
			p.Delay(d)
		}
		rh := f.hdrs[node].resp[:]
		binary.LittleEndian.PutUint64(rh[0:], r.id)
		err := xport.SendGather(p, f.spaces[node], r.dst, respHandler, rh, f.body[:r.respB])
		if err != nil {
			f.errs = append(f.errs, fmt.Sprintf("server %d resp to %d: %v", node, r.dst, err))
		}
	}
}

// issue fires one request's sub-request fan-out. Each sub-request waits at
// the credit gate (making progress, not blocking) until its destination
// window has room; in open-loop mode the stall is charged to the request,
// whose latency clock started at its scheduled arrival.
func (f *Fleet) issue(p *sim.Proc, node, seq int, rq req) {
	id := reqID(node, seq)
	t0 := rq.T
	if t0 == 0 {
		t0 = p.Now() // closed-loop: latency from the actual issue
	}
	f.pending[node][id] = inflight{t0: t0, remaining: rq.Fan}
	f.issued++
	n := len(f.spaces)
	hdr := f.hdrs[node].req[:]
	binary.LittleEndian.PutUint64(hdr[0:], id)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(node))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(rq.RespB))
	for j := 0; j < rq.Fan; j++ {
		dst := (rq.Key + j) % n
		// A scheduled request's patience is anchored to its arrival, not to
		// when the gate was reached: a client wedged behind a leaked window
		// then abandons its whole backlog in one sweep instead of waiting a
		// fresh drain window per request.
		giveup := f.giveUp(cmp.Or(rq.T, p.Now()))
		if !f.await(p, node, giveup, waitFor{kind: forCredit, dst: dst, size: reqHeaderSize + rq.ReqB}) {
			// The window toward dst has leaked shut: frames destroyed
			// by fault injection never return their credits. Abandon
			// the request rather than wedge the client mid-schedule —
			// sub-responses already in flight for it are dropped by
			// gatherResponse when they find no pending entry.
			delete(f.pending[node], id)
			f.abandoned++
			return
		}
		err := xport.SendGather(p, f.spaces[node], dst, reqHandler, hdr, f.body[:rq.ReqB])
		if err != nil {
			f.errs = append(f.errs, fmt.Sprintf("client %d req %d -> %d: %v", node, seq, dst, err))
			delete(f.pending[node], id)
			f.failed++
			return
		}
		f.subSent++
	}
}

// serveRequest is the shard server's receive half: consume the sub-request
// and queue its response. It runs on a handler thread of the serving node
// (inline on the client's proc for a self-addressed sub-request — the local
// shard is the local host). The compute and the send happen later, in
// flushReplies, so a handler never stalls the extraction loop on credits.
func (f *Fleet) serveRequest(p *sim.Proc, node int, s xport.RecvStream) {
	hdr := xport.ReceiveHeader(p, s, reqHeaderSize)
	s.ReceiveDiscard(p, s.Remaining())
	id := binary.LittleEndian.Uint64(hdr[0:])
	client := int(binary.LittleEndian.Uint32(hdr[8:]))
	respB := int(binary.LittleEndian.Uint32(hdr[12:]))
	if client < 0 || client >= len(f.spaces) || respB > len(f.body) {
		return // malformed by construction we never send; drop
	}
	f.served[node]++
	*f.replyQ[node].Push() = pendingReply{dst: client, id: id, respB: respB}
}

// gatherResponse completes a request when its last sub-response lands. A
// response for an abandoned request (drained under faults) is consumed and
// dropped.
func (f *Fleet) gatherResponse(p *sim.Proc, node int, s xport.RecvStream) {
	hdr := xport.ReceiveHeader(p, s, respHeaderSize)
	s.ReceiveDiscard(p, s.Remaining())
	id := binary.LittleEndian.Uint64(hdr[0:])
	st, ok := f.pending[node][id]
	if !ok {
		return
	}
	st.remaining--
	if st.remaining > 0 {
		f.pending[node][id] = st
		return
	}
	delete(f.pending[node], id)
	f.completed++
	now := p.Now()
	f.hists[node].Record(int64(now - st.t0))
	if now > f.lastNS {
		f.lastNS = now
	}
}

// allDone reports global completion: every client has issued its schedule
// and no request is outstanding anywhere (abandoned ones excluded).
func (f *Fleet) allDone() bool {
	return f.finished == len(f.spaces) &&
		f.completed+f.abandoned+f.failed == f.issued
}

// RunNode is one node's proc body: the client's arrival loop doubling as
// the node's progress engine (its Extract calls are what run the co-located
// shard server). Spawn one per node, then run the kernel.
func (f *Fleet) RunNode(p *sim.Proc, node int) {
	if f.clients == nil && f.trace == nil {
		panic("svcload: RunNode before Plan/PlanTrace")
	}
	var lastArrival sim.Time
	for seq, n := 0, f.requests(node); seq < n; seq++ {
		rq := f.request(node, seq)
		if rq.T > 0 {
			// Open-loop: serve the shard until the scheduled arrival, and
			// not a nanosecond longer.
			f.await(p, node, rq.T, waitFor{kind: forArrival})
			lastArrival = rq.T
		}
		f.issue(p, node, seq, rq)
		if rq.T == 0 {
			// Closed loop: wait for this request before the next. With a
			// drain window configured the wait is bounded — a lost
			// sub-response must not stall the chain forever.
			id := reqID(node, seq)
			if !f.await(p, node, f.giveUp(p.Now()), waitFor{kind: forGather, id: id}) {
				delete(f.pending[node], id)
				f.abandoned++
			}
		}
	}
	f.finished++
	f.await(p, node, f.giveUp(lastArrival), waitFor{kind: forAll})
	// Abandon what the drain window didn't gather: under loss these are the
	// requests whose sub-responses died with a dropped frame. Without a
	// window the wait ended with nothing outstanding anywhere.
	f.abandoned += int64(len(f.pending[node]))
	clear(f.pending[node])
}

// giveUp is the deadline of a wait anchored at t: t plus the drain window,
// or 0 (never) without one. A deadline at or before now ends the wait at
// once.
func (f *Fleet) giveUp(t sim.Time) sim.Time {
	if f.wl.Drain == 0 {
		return 0
	}
	return t + f.wl.Drain
}

// Hist returns the merged service-level latency histogram.
func (f *Fleet) Hist() *Hist {
	m := newHist()
	for _, h := range f.hists {
		m.Merge(h)
	}
	return m
}

// Result is the machine-readable outcome of one fleet run. All fields are
// virtual-time or counter derived: two runs with one seed produce identical
// values, and a replayed trace reproduces them exactly.
type Result struct {
	Mode  string `json:"mode"`
	Nodes int    `json:"nodes"`

	Planned     int64 `json:"planned"`
	Issued      int64 `json:"issued"`
	Completed   int64 `json:"completed"`
	Abandoned   int64 `json:"abandoned,omitempty"`
	Failed      int64 `json:"failed,omitempty"`
	SubRequests int64 `json:"sub_requests"`
	Served      int64 `json:"served"`

	// Shard skew: requests served by the hottest and coldest replica.
	HotServed  int64 `json:"hot_served"`
	ColdServed int64 `json:"cold_served"`

	// Virtual-time latency quantiles over completed requests, ns.
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
	MeanUS float64 `json:"mean_us"`

	// LastNS is the virtual time of the last completion; GoodputRPS is
	// completed requests over that span.
	LastNS     int64   `json:"last_ns"`
	GoodputRPS float64 `json:"goodput_rps"`

	Errors []string `json:"errors,omitempty"`
}

// Result summarizes the finished run.
func (f *Fleet) Result() Result {
	h := f.Hist()
	r := Result{
		Mode:        string(f.wl.Mode),
		Nodes:       len(f.spaces),
		Planned:     f.planned,
		Issued:      f.issued,
		Completed:   f.completed,
		Abandoned:   f.abandoned,
		Failed:      f.failed,
		SubRequests: f.subSent,
		P50NS:       h.Quantile(0.50),
		P99NS:       h.Quantile(0.99),
		P999NS:      h.Quantile(0.999),
		MaxNS:       h.Max(),
		MeanUS:      h.Mean() / 1e3,
		LastNS:      int64(f.lastNS),
		Errors:      f.errs,
	}
	for i, s := range f.served {
		r.Served += s
		if i == 0 || s > r.HotServed {
			r.HotServed = s
		}
		if i == 0 || s < r.ColdServed {
			r.ColdServed = s
		}
	}
	if f.lastNS > 0 {
		r.GoodputRPS = float64(f.completed) / f.lastNS.Seconds()
	}
	return r
}
