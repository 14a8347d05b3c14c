package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Run outcomes.
const (
	// OutcomeComplete: every rank finished inside the watchdog budget.
	OutcomeComplete = "complete"
	// OutcomeWatchdog: virtual time hit the watchdog (or the event queue
	// drained with parked ranks) before every rank finished — a hang,
	// converted into a diagnosed failure.
	OutcomeWatchdog = "watchdog"
	// OutcomePanic: a simulated process crashed.
	OutcomePanic = "panic"
	// OutcomeError: the scenario could not be built at all.
	OutcomeError = "error"
)

// LossRecord is one aggregated loss-registry entry in report form.
type LossRecord struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Ctrl  bool   `json:"ctrl,omitempty"`
	Cause string `json:"cause"`
	Count int64  `json:"count"`
}

// RPCStats is the service-workload section of an rpc-pattern report:
// virtual-time tail latency over completed requests, plus the completion
// ledger the drain window leaves behind under faults.
type RPCStats struct {
	Planned   int64 `json:"planned"`
	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	Abandoned int64 `json:"abandoned,omitempty"`
	P50NS     int64 `json:"p50_ns"`
	P99NS     int64 `json:"p99_ns"`
	P999NS    int64 `json:"p999_ns"`
	MaxNS     int64 `json:"max_ns"`
	// GoodputRPS is completed requests over the span to the last completion.
	GoodputRPS float64 `json:"goodput_rps"`
}

// Report is the machine-readable result of one scenario run. Every field is
// derived from virtual time, deterministic counters, or sorted registries —
// two runs with the same seed marshal to identical bytes.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Outcome  string `json:"outcome"`
	Passed   bool   `json:"passed"`
	// Failures lists assertion violations and run errors (empty when Passed).
	Failures []string `json:"failures,omitempty"`

	// Run shape.
	VirtualNS int64  `json:"virtual_ns"`
	Events    uint64 `json:"events"`
	Ranks     int    `json:"ranks"`
	RanksDone int    `json:"ranks_done"`

	// Traffic totals.
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecvd int64 `json:"msgs_recvd"`
	// MsgsExpected is what full delivery would have looked like.
	MsgsExpected int64 `json:"msgs_expected"`

	// Fault accounting, summed over links and NICs.
	Dropped     int64 `json:"dropped"`
	Corrupted   int64 `json:"corrupted"`
	DownDropped int64 `json:"down_dropped"`
	CRCDropped  int64 `json:"crc_dropped"`
	RingDropped int64 `json:"ring_dropped"`
	Malformed   int64 `json:"malformed"`
	Orphaned    int64 `json:"orphaned"`
	// LeakedCredits is the fabric-wide count of destroyed data frames: each
	// one is a flow-control credit the sender can never recover.
	LeakedCredits int64 `json:"leaked_credits"`

	// RPC carries the tail-latency section for rpc-pattern scenarios.
	RPC *RPCStats `json:"rpc,omitempty"`

	// Lost is the fabric's aggregated loss registry, sorted.
	Lost []LossRecord `json:"lost,omitempty"`

	// Hang is the kernel's hang report for OutcomeWatchdog runs: what each
	// rank waits on, and the wait-for cycle first.
	Hang *sim.HangReport `json:"hang,omitempty"`
}

// fail records an assertion violation.
func (r *Report) fail(format string, args ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// evaluate checks the spec's assertions against the finished report and
// sets Passed. Checks run in a fixed order so the failure list is
// deterministic.
func (r *Report) evaluate(a Assert) {
	want := a.Outcome
	if want == "" {
		want = OutcomeComplete
	}
	if r.Outcome != want {
		r.fail("outcome %q, want %q", r.Outcome, want)
	}
	if a.AllDelivered && r.MsgsRecvd != r.MsgsExpected {
		r.fail("delivered %d of %d expected messages", r.MsgsRecvd, r.MsgsExpected)
	}
	if a.MinDelivered > 0 && r.MsgsRecvd < a.MinDelivered {
		r.fail("delivered %d messages, want >= %d", r.MsgsRecvd, a.MinDelivered)
	}
	if a.MinDropped > 0 && r.Dropped < a.MinDropped {
		r.fail("dropped %d frames, want >= %d", r.Dropped, a.MinDropped)
	}
	if a.MinCRCDropped > 0 && r.CRCDropped < a.MinCRCDropped {
		r.fail("CRC-dropped %d frames, want >= %d", r.CRCDropped, a.MinCRCDropped)
	}
	if a.MinDownDropped > 0 && r.DownDropped < a.MinDownDropped {
		r.fail("down-dropped %d frames, want >= %d", r.DownDropped, a.MinDownDropped)
	}
	if a.MinLeakedCredits > 0 && r.LeakedCredits < a.MinLeakedCredits {
		r.fail("leaked %d credits, want >= %d", r.LeakedCredits, a.MinLeakedCredits)
	}
	if a.ZeroLoss {
		if loss := r.Dropped + r.Corrupted + r.DownDropped + r.CRCDropped + r.RingDropped + r.LeakedCredits; loss != 0 {
			r.fail("fabric not clean: %d loss events", loss)
		}
	}
	if a.MaxP99MS > 0 || a.MaxP999MS > 0 || a.MinCompleted > 0 {
		if r.RPC == nil {
			r.fail("tail-latency assertion on a run with no rpc section")
		} else {
			if a.MaxP99MS > 0 && r.RPC.P99NS > int64(msTime(a.MaxP99MS)) {
				r.fail("p99 %.3fms, want <= %.3fms", float64(r.RPC.P99NS)/1e6, a.MaxP99MS)
			}
			if a.MaxP999MS > 0 && r.RPC.P999NS > int64(msTime(a.MaxP999MS)) {
				r.fail("p999 %.3fms, want <= %.3fms", float64(r.RPC.P999NS)/1e6, a.MaxP999MS)
			}
			if a.MinCompleted > 0 && r.RPC.Completed < a.MinCompleted {
				r.fail("completed %d requests, want >= %d", r.RPC.Completed, a.MinCompleted)
			}
		}
	}
	r.Passed = len(r.Failures) == 0
}

// Marshal renders the report as indented JSON with a trailing newline.
// Struct-order fields, sorted slices, and virtual-time-only values make the
// bytes reproducible run to run.
func (r *Report) Marshal() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Report contains only marshalable fields; this cannot happen.
		panic(err)
	}
	return append(b, '\n')
}
