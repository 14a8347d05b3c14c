package scenario

import (
	"fmt"

	fmnet "repro"
	"repro/internal/xport"
)

// pattern is one traffic pattern: everything Validate and Run know about it.
// Adding a pattern is adding a row to patterns; nothing else names one.
// Spec, Traffic and Report cross these calls by value: a pointer handed to a
// func value escapes, which would be a heap copy of each per run.
type pattern struct {
	// reads is the optional spec fields the pattern acts on. Setting any
	// other is an error, like an unknown JSON field.
	reads fields
	check func(s Spec) error // the fields only this pattern reads; nil = none
	// service attaches what the pattern sends over.
	service func(t Traffic) fmnet.Option
	// prepare plans the built session before the ranks spawn: expected
	// counts, and whatever must be installed to receive.
	prepare func(r *runner) error
	// rank is one rank's traffic proc; an error leaves the rank not done.
	rank func(r *runner, rank int, p *fmnet.Proc) error
	// report overrides the delivery ledger after the run; nil = the
	// runner's own counters are the ledger.
	report func(r *runner, rep Report) Report
}

// fields is a set of optional spec fields.
type fields uint8

const (
	fOpenLoop fields = 1 << iota
	fDrainMS
	fRPC // the rpc-only traffic fields and the tail-latency assertions
)

// unread names an optional field the spec sets and its pattern does not
// read ("" = none).
func (s *Spec) unread(reads fields) string {
	t, a := s.Traffic, s.Assert
	switch {
	case t.OpenLoop && reads&fOpenLoop == 0:
		return "open_loop"
	case t.DrainMS != 0 && reads&fDrainMS == 0:
		return "drain_ms"
	case reads&fRPC == 0 && (t.RPCMode != "" || t.RateRPS != 0 || t.Fanout != 0 || t.Keyspace != 0 ||
		t.ZipfS != 0 || t.RespSize != 0 || t.ServiceUS != 0 ||
		a.MaxP99MS != 0 || a.MaxP999MS != 0 || a.MinCompleted != 0):
		return "rpc_* traffic fields or tail-latency assertions"
	}
	return ""
}

// patterns is the table. The raw patterns are closed formulas over (n, rank,
// dst), not RNG draws, so the offered load is identical across seeds — only
// the fault schedule varies.
var patterns = map[string]*pattern{
	"ring":     rawPattern(func(n, rank, dst int) bool { return dst == (rank+1)%n }),
	"pairs":    rawPattern(func(n, rank, dst int) bool { return dst == rank^1 }),
	"alltoall": rawPattern(func(n, rank, dst int) bool { return dst != rank }),
	"incast":   rawPattern(func(n, rank, dst int) bool { return dst == 0 && rank != 0 }),
	"allreduce": { // MPI installs its own handlers
		service: func(Traffic) fmnet.Option { return fmnet.WithMPI() },
		prepare: func(r *runner) error {
			r.expect = make([]int64, r.spec.Nodes)
			for rank := range r.expect {
				r.expect[rank] = int64(r.spec.Traffic.Messages) // completed rounds
			}
			return nil
		},
		rank: (*runner).allreduceRank,
	},
	"rpc": {
		reads: fDrainMS | fRPC, check: checkRPC,
		service: func(t Traffic) fmnet.Option {
			return fmnet.WithRPC(fmnet.RPCConfig{ServiceTime: fmnet.Time(t.ServiceUS * float64(fmnet.Microsecond))})
		},
		prepare: planRPC,
		// The fleet's driver is the whole rank: client schedule, shard
		// server, and drain window all run inside RunNode.
		rank:   func(r *runner, rank int, p *fmnet.Proc) error { r.s.RPC().RunNode(p, rank); return nil },
		report: reportRPC,
	},
}

// rawPattern is the row of a pattern of plain messages over the custom
// service: sends says whether rank sends to dst, once per round, and
// everything else is shared.
func rawPattern(sends func(n, rank, dst int) bool) *pattern {
	return &pattern{
		reads:   fOpenLoop | fDrainMS,
		service: func(Traffic) fmnet.Option { return fmnet.WithService(svcName) },
		prepare: func(r *runner) error { r.planRaw(sends); return nil },
		rank:    (*runner).rawRank,
	}
}

// planRaw fills each rank's targets and, from them, what full delivery means
// for each receiver; then installs the consuming handler on every node: pull
// the whole message (parking mid-stream if its frames were lost — exactly
// the hang the watchdog diagnoses), then count it.
func (r *runner) planRaw(sends func(n, rank, dst int) bool) {
	n := r.spec.Nodes
	r.targets = make([][]int, n)
	r.expect = make([]int64, n)
	r.waits = make([]rankWait, n)
	for rank := 0; rank < n; rank++ {
		r.waits[rank] = rankWait{r: r, rank: rank}
		for dst := 0; dst < n; dst++ {
			if sends(n, rank, dst) {
				r.targets[rank] = append(r.targets[rank], dst)
				r.expect[dst] += int64(r.spec.Traffic.Messages)
			}
		}
		r.s.Space(rank, svcName).Register(trafficHandler, func(p *fmnet.Proc, st fmnet.RecvStream) {
			st.ReceiveDiscard(p, st.Length())
			r.recv[rank]++
		})
	}
}

// payload builds a rank's deterministic message body.
func payload(rank, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*31 + i)
	}
	return b
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

// rawRank is the rank body the raw patterns share.
func (r *runner) rawRank(rank int, p *fmnet.Proc) error {
	t := r.spec.Traffic
	sp := r.s.Space(rank, svcName)
	body := payload(rank, t.Size)
	for m := 0; m < t.Messages; m++ {
		for _, dst := range r.targets[rank] {
			if err := fmnet.Send(p, sp, dst, trafficHandler, body); err != nil {
				return fmt.Errorf("rank %d send to %d: %v", rank, dst, err)
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
	return nil
}

// allreduceRank drives collective rounds over the MPI service.
func (r *runner) allreduceRank(rank int, p *fmnet.Proc) error {
	c := r.s.MPI(rank)
	size := (r.spec.Traffic.Size + 3) &^ 3 // OpSumU32 wants whole words
	in, out := payload(rank, size), make([]byte, size)
	for m := 0; m < r.spec.Traffic.Messages; m++ {
		if err := c.Allreduce(p, in, out, fmnet.OpSumU32); err != nil {
			return fmt.Errorf("rank %d allreduce round %d: %v", rank, m, err)
		}
		r.sent++
		r.recv[rank]++
	}
	return nil
}

func checkRPC(s Spec) error {
	t := s.Traffic
	switch fmnet.RPCArrival(t.RPCMode) {
	case "", fmnet.RPCOpen, fmnet.RPCClosed, fmnet.RPCIncast:
	default:
		return fmt.Errorf("scenario %s: rpc_mode must be open, closed, or incast, not %q", s.Name, t.RPCMode)
	}
	if fmnet.RPCArrival(t.RPCMode) != fmnet.RPCClosed && t.RateRPS <= 0 {
		return fmt.Errorf("scenario %s: rpc pattern needs rate_rps > 0 (or rpc_mode \"closed\")", s.Name)
	}
	if t.Fanout < 0 || t.Fanout > s.Nodes {
		return fmt.Errorf("scenario %s: fanout %d outside [0, %d]", s.Name, t.Fanout, s.Nodes)
	}
	if t.Keyspace < 0 || t.ZipfS < 0 || t.RespSize < 0 || t.ServiceUS < 0 {
		return fmt.Errorf("scenario %s: negative rpc field", s.Name)
	}
	return nil
}

// planRPC hands the fleet its workload. The workload seed is the scenario
// seed: the same derivation that decorrelates fault schedules decorrelates
// request schedules.
func planRPC(r *runner) error {
	t := r.spec.Traffic
	if err := r.s.RPC().Plan(fmnet.RPCWorkload{
		Mode: fmnet.RPCArrival(t.RPCMode), Requests: t.Messages, RateRPS: t.RateRPS,
		Fanout: t.Fanout, Keyspace: t.Keyspace, ZipfS: t.ZipfS,
		ReqBytes: t.Size, RespBytes: t.RespSize,
		Seed: r.seed, Drain: msTime(t.DrainMS),
	}); err != nil {
		return fmt.Errorf("plan rpc workload: %v", err)
	}
	return nil
}

// reportRPC makes the fleet's planned/issued/completed ledger the report's.
func reportRPC(r *runner, rep Report) Report {
	res := r.s.RPC().Result()
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
	return rep
}
