package scenario

import (
	"fmt"

	fmnet "repro"
	"repro/internal/xport"
)

// svcName is the custom fmnet service the raw traffic drivers send over.
const svcName = "scen"

// trafficHandler is the handler ID the drivers address.
const trafficHandler fmnet.HandlerID = 1

// pollGap paces the receive-wait loop: long enough to bound event volume
// over a 50ms watchdog window, short enough not to distort completion times.
const pollGap = 5 * fmnet.Microsecond

// defaultDrainMS is the open-loop drain window after a rank's last send.
const defaultDrainMS = 5

// runner drives one scenario over a Session. The kernel is single-threaded,
// so rank procs may share these fields without locks; mutation order is
// fixed by the deterministic event schedule.
type runner struct {
	spec Spec
	s    *fmnet.Session

	targets [][]int // per-rank destination list, one message per entry per round
	expect  []int64 // per-rank expected receive count
	recv    []int64 // per-rank received count (handler increments)
	done    []bool  // per-rank completion flag (the watchdog's progress meter)
	waits   []rankWait
	sent    int64
	errs    []string // send/collective errors, in event order
}

// planTraffic fills targets/expect from the pattern. Patterns are closed
// formulas, not RNG draws, so the offered load is identical across seeds —
// only the fault schedule varies.
func (r *runner) planTraffic() error {
	n := r.spec.Nodes
	t := r.spec.Traffic
	r.targets = make([][]int, n)
	r.expect = make([]int64, n)
	switch t.Pattern {
	case "ring":
		for rank := 0; rank < n; rank++ {
			r.targets[rank] = []int{(rank + 1) % n}
			r.expect[rank] = int64(t.Messages)
		}
	case "pairs":
		for rank := 0; rank < n; rank++ {
			partner := rank ^ 1
			if partner < n {
				r.targets[rank] = []int{partner}
				r.expect[rank] = int64(t.Messages)
			}
		}
	case "alltoall":
		for rank := 0; rank < n; rank++ {
			for dst := 0; dst < n; dst++ {
				if dst != rank {
					r.targets[rank] = append(r.targets[rank], dst)
				}
			}
			r.expect[rank] = int64(t.Messages) * int64(n-1)
		}
	case "incast":
		for rank := 1; rank < n; rank++ {
			r.targets[rank] = []int{0}
		}
		r.expect[0] = int64(t.Messages) * int64(n-1)
	case "allreduce":
		// Collective rounds; expect counts completed rounds per rank.
		for rank := 0; rank < n; rank++ {
			r.expect[rank] = int64(t.Messages)
		}
	case "rpc":
		// Placeholder until the fleet reports: the real planned/issued/
		// completed ledger is copied from the RPC result after the run.
		for rank := 0; rank < n; rank++ {
			r.expect[rank] = int64(t.Messages)
		}
	default:
		return fmt.Errorf("scenario %s: unknown traffic pattern %q", r.spec.Name, t.Pattern)
	}
	return nil
}

// payload builds a rank's deterministic message body.
func payload(rank, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*31 + i)
	}
	return b
}

// registerHandlers installs the consuming handler on every node: pull the
// whole message (parking mid-stream if its frames were lost — exactly the
// hang the watchdog diagnoses), then count it.
func (r *runner) registerHandlers() {
	for node := 0; node < r.spec.Nodes; node++ {
		node := node
		sp := r.s.Space(node, svcName)
		sp.Register(trafficHandler, func(p *fmnet.Proc, st fmnet.RecvStream) {
			st.ReceiveDiscard(p, st.Length())
			r.recv[node]++
		})
	}
}

// rankWait is the condition of a rank's closed-loop receive wait: every
// expected message counted. One per rank for the run — the wait evaluates it
// from the kernel's dispatcher, so it is a value that outlives the call.
type rankWait struct {
	r    *runner
	rank int
}

func (w *rankWait) Done() bool { return w.r.recv[w.rank] >= w.r.expect[w.rank] }

// drained is the condition of the open-loop drain: nothing but its deadline
// ends it.
type drained struct{}

func (drained) Done() bool { return false }

// runRank is one rank's traffic proc.
func (r *runner) runRank(rank int, p *fmnet.Proc) {
	if r.spec.Traffic.Pattern == "allreduce" {
		r.runAllreduce(rank, p)
		return
	}
	if r.spec.Traffic.Pattern == "rpc" {
		// The fleet's driver is the whole rank: client schedule, shard
		// server, and drain window all run inside RunNode.
		r.s.RPC().RunNode(p, rank)
		r.done[rank] = true
		return
	}
	t := r.spec.Traffic
	sp := r.s.Space(rank, svcName)
	body := payload(rank, t.Size)
	for m := 0; m < t.Messages; m++ {
		for _, dst := range r.targets[rank] {
			if err := fmnet.Send(p, sp, dst, trafficHandler, body); err != nil {
				r.errs = append(r.errs, fmt.Sprintf("rank %d send to %d: %v", rank, dst, err))
				return
			}
			r.sent++
			sp.Extract(p, 0)
		}
	}
	if t.OpenLoop {
		drainMS := t.DrainMS
		if drainMS == 0 {
			drainMS = defaultDrainMS
		}
		sp.WaitPaced(p, 0, drained{}, xport.Pace{Gap: pollGap, Deadline: p.Now() + msTime(drainMS)})
	} else {
		// Closed loop: wait for every expected message. Under loss this
		// never terminates — the watchdog converts the spin into a
		// diagnosed hang at the virtual-time budget.
		sp.WaitPaced(p, 0, &r.waits[rank], xport.Pace{Gap: pollGap})
	}
	r.done[rank] = true
}

// runAllreduce drives collective rounds over the MPI service.
func (r *runner) runAllreduce(rank int, p *fmnet.Proc) {
	c := r.s.MPI(rank)
	size := (r.spec.Traffic.Size + 3) &^ 3 // OpSumU32 wants whole words
	in, out := payload(rank, size), make([]byte, size)
	for m := 0; m < r.spec.Traffic.Messages; m++ {
		if err := c.Allreduce(p, in, out, fmnet.OpSumU32); err != nil {
			r.errs = append(r.errs, fmt.Sprintf("rank %d allreduce round %d: %v", rank, m, err))
			return
		}
		r.sent++
		r.recv[rank]++
	}
	r.done[rank] = true
}

// Run executes one scenario under the given campaign seed and returns its
// report. It never panics and never hangs: crashes surface as
// OutcomePanic, stalls as OutcomeWatchdog with a hang diagnostic.
func Run(spec Spec, campaignSeed int64) Report {
	seed := ScenarioSeed(campaignSeed, spec.Name)
	rep := Report{Scenario: spec.Name, Seed: seed, Ranks: spec.Nodes}
	if err := spec.Validate(); err != nil {
		rep.Outcome = OutcomeError
		rep.fail("%v", err)
		return rep
	}

	topo, _ := spec.topo() // validated above
	opts := []fmnet.Option{fmnet.Nodes(spec.Nodes), fmnet.Topology(topo)}
	if spec.FM == 1 {
		opts = append(opts, fmnet.FM1())
	} else {
		opts = append(opts, fmnet.FM2())
	}
	switch spec.Traffic.Pattern {
	case "allreduce":
		opts = append(opts, fmnet.WithMPI())
	case "rpc":
		opts = append(opts, fmnet.WithRPC(fmnet.RPCConfig{
			ServiceTime: fmnet.Time(spec.Traffic.ServiceUS * float64(fmnet.Microsecond)),
		}))
	default:
		opts = append(opts, fmnet.WithService(svcName))
	}
	if plan := spec.faultPlan(seed); plan != nil {
		opts = append(opts, fmnet.WithFaults(*plan))
	}
	if spec.Poison {
		opts = append(opts, fmnet.WithPoison())
	}
	s, err := fmnet.New(opts...)
	if err != nil {
		rep.Outcome = OutcomeError
		rep.fail("build: %v", err)
		return rep
	}
	defer s.Kernel().Shutdown()

	r := &runner{
		spec:  spec,
		s:     s,
		recv:  make([]int64, spec.Nodes),
		done:  make([]bool, spec.Nodes),
		waits: make([]rankWait, spec.Nodes),
	}
	for rank := range r.waits {
		r.waits[rank] = rankWait{r: r, rank: rank}
	}
	if err := r.planTraffic(); err != nil {
		rep.Outcome = OutcomeError
		rep.fail("%v", err)
		return rep
	}
	switch spec.Traffic.Pattern {
	case "allreduce":
		// MPI installs its own handlers.
	case "rpc":
		// The workload seed is the scenario seed: the same derivation that
		// decorrelates fault schedules decorrelates request schedules.
		t := spec.Traffic
		mode := fmnet.RPCOpen
		switch t.RPCMode {
		case "closed":
			mode = fmnet.RPCClosed
		case "incast":
			mode = fmnet.RPCIncast
		}
		if err := s.RPC().Plan(fmnet.RPCWorkload{
			Mode: mode, Requests: t.Messages, RateRPS: t.RateRPS,
			Fanout: t.Fanout, Keyspace: t.Keyspace, ZipfS: t.ZipfS,
			ReqBytes: t.Size, RespBytes: t.RespSize,
			Seed: seed, Drain: msTime(t.DrainMS),
		}); err != nil {
			rep.Outcome = OutcomeError
			rep.fail("plan rpc workload: %v", err)
			return rep
		}
	default:
		r.registerHandlers()
	}
	s.SpawnRanks("scen", r.runRank)

	// The watchdog: ONE bounded run to the virtual-time budget. RunUntil
	// returns nil both at the horizon and on early queue drain (every proc
	// parked — e.g. all senders starved of leaked credits), so hang
	// detection is by rank completion, not by how the run stopped.
	runErr := s.Kernel().RunUntil(spec.watchdog())

	rep.VirtualNS = int64(s.Now())
	rep.Events = s.Kernel().Events()
	for _, d := range r.done {
		if d {
			rep.RanksDone++
		}
	}
	rep.MsgsSent = r.sent
	for _, c := range r.recv {
		rep.MsgsRecvd += c
	}
	for _, e := range r.expect {
		rep.MsgsExpected += e
	}
	rep.Failures = append(rep.Failures, r.errs...)
	if spec.Traffic.Pattern == "rpc" {
		res := s.RPC().Result()
		rep.MsgsSent = res.Issued
		rep.MsgsRecvd = res.Completed
		rep.MsgsExpected = res.Planned
		rep.Failures = append(rep.Failures, res.Errors...)
		rep.RPC = &RPCStats{
			Planned: res.Planned, Issued: res.Issued,
			Completed: res.Completed, Abandoned: res.Abandoned,
			P50NS: res.P50NS, P99NS: res.P99NS, P999NS: res.P999NS,
			MaxNS: res.MaxNS, GoodputRPS: res.GoodputRPS,
		}
	}

	fab := s.Fabric()
	for _, l := range fab.Links() {
		st := l.Stats()
		rep.Dropped += st.Dropped
		rep.Corrupted += st.Corrupted
		rep.DownDropped += st.DownDropped
	}
	for node := 0; node < spec.Nodes; node++ {
		nst := s.NICStats(node)
		rep.CRCDropped += nst.CRCDropped
		rep.RingDropped += nst.RingDropped
		est := s.Endpoint(node).Transport().Core().Stats()
		rep.Malformed += est.Malformed
		rep.Orphaned += est.Orphaned
	}
	rep.LeakedCredits = fab.LeakedCredits(-1, -1)
	for _, lf := range fab.LostFrames() {
		rep.Lost = append(rep.Lost, LossRecord{
			Src: lf.Src, Dst: lf.Dst, Ctrl: lf.Ctrl, Cause: lf.Cause, Count: lf.Count,
		})
	}

	switch {
	case runErr != nil:
		rep.Outcome = OutcomePanic
		rep.fail("crash: %v", runErr)
	case rep.RanksDone == rep.Ranks:
		rep.Outcome = OutcomeComplete
	default:
		rep.Outcome = OutcomeWatchdog
		rep.Hang = r.diagnoseHang()
	}

	rep.evaluate(spec.Assert)
	return rep
}

// diagnoseHang snapshots the stalled run: the post-mortem a hung test never
// used to leave behind.
func (r *runner) diagnoseHang() *HangDiagnostic {
	d := &HangDiagnostic{LastEventNS: int64(r.s.Now())}
	fab := r.s.Fabric()
	for rank, done := range r.done {
		if !done {
			d.WaitingRanks = append(d.WaitingRanks, rank)
		}
	}
	for node := 0; node < r.spec.Nodes; node++ {
		nd := NodeDiag{
			Node:              node,
			Done:              r.done[node],
			RingDepth:         r.s.RingDepth(node),
			LeakedAsSender:    fab.LeakedCredits(node, -1),
			LostCreditReturns: fab.LostCreditReturns(node),
		}
		t := r.s.Endpoint(node).Transport()
		fc := t.Core().FlowControl()
		for dst := 0; dst < fc.Nodes(); dst++ {
			if dst != node {
				nd.OutstandingCredits += fc.Outstanding(dst)
			}
		}
		if sa, ok := t.(xport.StreamAccounting); ok {
			nd.ActiveStreams = sa.ActiveStreams()
		}
		d.PerNode = append(d.PerNode, nd)
	}
	return d
}
