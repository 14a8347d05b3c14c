package scenario

import (
	"fmt"

	fmnet "repro"
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
	pat  *pattern
	seed int64
	s    *fmnet.Session

	targets [][]int // per-rank destination list, one message per entry per round
	expect  []int64 // per-rank expected receive count
	recv    []int64 // per-rank received count
	done    []bool  // per-rank completion flag (the watchdog's progress meter)
	waits   []rankWait
	sent    int64
	errs    []string // send/collective errors, in event order
}

// runRank is one rank's traffic proc.
func (r *runner) runRank(rank int, p *fmnet.Proc) {
	if err := r.pat.rank(r, rank, p); err != nil {
		r.errs = append(r.errs, err.Error())
		return
	}
	r.done[rank] = true
}

// Run executes one scenario under the given campaign seed and returns its
// report. It never panics and never hangs: crashes surface as
// OutcomePanic, stalls as OutcomeWatchdog with the kernel's hang report.
func Run(spec Spec, campaignSeed int64) Report {
	seed := ScenarioSeed(campaignSeed, spec.Name)
	rep := Report{Scenario: spec.Name, Seed: seed, Ranks: spec.Nodes}
	r, err := start(spec, seed)
	if err != nil {
		rep.Outcome = OutcomeError
		rep.fail("%v", err)
		return rep
	}
	s := r.s
	defer s.Kernel().Shutdown()

	// The watchdog: ONE bounded run to the virtual-time budget. RunUntil
	// returns nil both at the horizon and on early queue drain (every proc
	// parked — e.g. all senders starved of leaked credits), so hang
	// detection is by rank completion, not by how the run stopped.
	runErr := s.Kernel().RunUntil(spec.watchdog())

	r.collect(&rep)
	switch {
	case runErr != nil:
		rep.Outcome = OutcomePanic
		rep.fail("crash: %v", runErr)
	case rep.RanksDone == rep.Ranks:
		rep.Outcome = OutcomeComplete
	default:
		rep.Outcome = OutcomeWatchdog
		rep.Hang = s.Kernel().HangReport()
	}

	rep.evaluate(spec.Assert)
	return rep
}

// start builds the scenario's session, plans its traffic and spawns its
// ranks.
func start(spec Spec, seed int64) (*runner, error) {
	pat, err := spec.check()
	if err != nil {
		return nil, err
	}
	topo, _ := spec.topo() // validated above
	opts := []fmnet.Option{fmnet.Nodes(spec.Nodes), fmnet.Topology(topo)}
	if spec.FM == 1 {
		opts = append(opts, fmnet.FM1())
	} else {
		opts = append(opts, fmnet.FM2())
	}
	opts = append(opts, pat.service(spec.Traffic))
	if plan := spec.faultPlan(seed); plan != nil {
		opts = append(opts, fmnet.WithFaults(*plan))
	}
	s, err := fmnet.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("build: %v", err)
	}
	r := &runner{
		spec: spec, pat: pat, seed: seed, s: s,
		recv: make([]int64, spec.Nodes),
		done: make([]bool, spec.Nodes),
	}
	if err := pat.prepare(r); err != nil {
		s.Kernel().Shutdown()
		return nil, err
	}
	s.SpawnRanks("scen", r.runRank)
	return r, nil
}

// collect fills the report's run shape, delivery ledger and fault
// accounting from the stopped session.
func (r *runner) collect(rep *Report) {
	s := r.s
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
	if r.pat.report != nil {
		*rep = r.pat.report(r, *rep)
	}

	fab := s.Fabric()
	for _, l := range fab.Links() {
		st := l.Stats()
		rep.Dropped += st.Dropped
		rep.Corrupted += st.Corrupted
		rep.DownDropped += st.DownDropped
	}
	for node := 0; node < r.spec.Nodes; node++ {
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
}
