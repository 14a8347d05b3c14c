// Package scenario is the declarative chaos layer of the reproduction: a
// scenario file describes a cluster shape, a service mix over the public
// fmnet Session façade, a traffic pattern, a seeded fault schedule, and
// pass/fail assertions — and the runner turns it into a deterministic
// simulation with a machine-readable report. New failure modes become data,
// not code: a campaign is a directory of scenario files replayed
// bit-identically from one campaign seed.
//
// The runner's virtual-time watchdog converts what used to be the worst
// failure mode — a silent hang when a dropped data frame leaks a
// flow-control credit — into a failed-with-diagnostic result carrying the
// per-link loss and credit-leak accounting and a `hang` object: the kernel's
// hang report (sim.HangReport) as `lines`, one per rank and per handler
// parked mid-message, each naming what it waits on — a credit toward a
// peer, the rest of a message from one, a poll for messages — and the nodes
// it waits for, after the wait-for cycle among nodes when there is one. FM
// assumes a reliable fabric and has no retransmit (paper §3.1), so under
// injected loss a hang is the EXPECTED protocol behavior; scenarios assert on
// it with `"outcome": "watchdog"`.
package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	fmnet "repro"
	"repro/internal/netsim"
)

// Traffic describes the offered load of a scenario.
type Traffic struct {
	// Pattern is one of:
	//   ring     — rank r sends to (r+1) mod n, expects from (r-1) mod n
	//   pairs    — rank r exchanges with r XOR 1
	//   alltoall — every rank sends to every other rank
	//   incast   — every rank sends to rank 0
	//   allreduce— MPI Allreduce rounds over the attached MPI service
	//   rpc      — the service-workload layer: every rank runs a shard
	//              server plus a load-generating client, and the report
	//              carries tail-latency quantiles (see the rpc_* fields)
	Pattern string `json:"pattern"`
	// Messages is the per-sender message count (rounds for allreduce,
	// per-client requests for rpc).
	Messages int `json:"messages"`
	// Size is the per-message payload size in bytes (the request payload,
	// for rpc).
	Size int `json:"size"`
	// OpenLoop sends without waiting for receive completion, then drains
	// until the drain window closes. Closed-loop (the default) waits for
	// every expected message — under loss it hangs by design, and the
	// watchdog turns the hang into a diagnostic. (Raw patterns only, an
	// error on the others; rpc arrival behavior is RPCMode's.)
	OpenLoop bool `json:"open_loop,omitempty"`
	// DrainMS is the open-loop drain window in virtual milliseconds after a
	// rank's last send (default 5). For rpc it bounds how long clients wait
	// on outstanding requests after their last arrival before abandoning
	// them — required for rpc scenarios that inject loss. A pattern with no
	// drain (allreduce) rejects it.
	DrainMS float64 `json:"drain_ms,omitempty"`

	// Fields only the rpc pattern reads.

	// RPCMode is the arrival model: open (default), closed, or incast.
	RPCMode string `json:"rpc_mode,omitempty"`
	// RateRPS is the per-client arrival rate in requests per virtual second
	// (open and incast modes).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// Fanout is the sub-requests per request (default 1).
	Fanout int `json:"fanout,omitempty"`
	// Keyspace is the number of distinct keys (default 256).
	Keyspace int `json:"keyspace,omitempty"`
	// ZipfS is the key-popularity skew exponent (0 = uniform).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// RespSize is the per-sub-response payload size in bytes.
	RespSize int `json:"resp_size,omitempty"`
	// ServiceUS is the shard's per-request compute in virtual microseconds
	// (default 2).
	ServiceUS float64 `json:"service_us,omitempty"`
}

// Fault is one fault rule in scenario-file form: link-name glob plus the
// fault fields, with times in virtual milliseconds. It converts 1:1 to a
// netsim.FaultRule.
type Fault struct {
	Links       string  `json:"links"`
	DropProb    float64 `json:"drop_prob,omitempty"`
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	FlapUpMS    float64 `json:"flap_up_ms,omitempty"`
	FlapDownMS  float64 `json:"flap_down_ms,omitempty"`
	DownFromMS  float64 `json:"down_from_ms,omitempty"`
	// DownUntilMS of 0 with DownFromMS > 0 means the link never heals.
	DownUntilMS float64 `json:"down_until_ms,omitempty"`
	SlowFactor  float64 `json:"slow_factor,omitempty"`
}

// Assert is the scenario's pass/fail contract, checked after the run.
// Zero-valued fields are not checked.
type Assert struct {
	// Outcome is "complete" (default: every rank finished before the
	// watchdog) or "watchdog" (the run was expected to hang).
	Outcome string `json:"outcome,omitempty"`
	// AllDelivered requires every sent message to have been received.
	AllDelivered bool `json:"all_delivered,omitempty"`
	// MinDelivered bounds the received message count from below.
	MinDelivered int64 `json:"min_delivered,omitempty"`
	// Loss-accounting floors, against the fabric/NIC counters.
	MinDropped       int64 `json:"min_dropped,omitempty"`
	MinCRCDropped    int64 `json:"min_crc_dropped,omitempty"`
	MinDownDropped   int64 `json:"min_down_dropped,omitempty"`
	MinLeakedCredits int64 `json:"min_leaked_credits,omitempty"`
	// ZeroLoss requires a clean fabric: no drops, corruption, or leaks.
	ZeroLoss bool `json:"zero_loss,omitempty"`

	// Tail-latency assertions (rpc pattern only), in virtual milliseconds
	// over completed requests.
	MaxP99MS  float64 `json:"max_p99_ms,omitempty"`
	MaxP999MS float64 `json:"max_p999_ms,omitempty"`
	// MinCompleted bounds completed (not abandoned) requests from below.
	MinCompleted int64 `json:"min_completed,omitempty"`
}

// Spec is one declarative scenario.
type Spec struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`

	// Cluster shape.
	Nodes    int    `json:"nodes"`
	Topology string `json:"topology,omitempty"` // single|pair|line|fattree|torus (default single)
	FM       int    `json:"fm,omitempty"`       // 1 or 2 (default 2)
	Poison   bool   `json:"poison,omitempty"`   // decoded, no effect: every run poisons recycled memory

	Traffic Traffic `json:"traffic"`
	Faults  []Fault `json:"faults,omitempty"`

	// WatchdogMS is the virtual-time budget: a run still incomplete when the
	// clock reaches it is declared hung and diagnosed (default 50).
	WatchdogMS float64 `json:"watchdog_ms,omitempty"`

	Assert Assert `json:"assert"`
}

// DefaultWatchdogMS is the virtual-time budget when the spec sets none.
const DefaultWatchdogMS = 50

// topo maps the scenario-file topology name onto fmnet ("" is single).
func (s *Spec) topo() (fmnet.Topo, error) {
	if s.Topology == "" {
		return fmnet.SingleSwitch, nil
	}
	t, err := netsim.ParseTopology(s.Topology)
	if err != nil {
		return 0, fmt.Errorf("scenario %s: unknown topology %q", s.Name, s.Topology)
	}
	return t, nil
}

// Validate checks the spec without building anything.
func (s *Spec) Validate() error {
	_, err := s.check()
	return err
}

// check is Validate, handing back the traffic pattern's row so a run looks
// it up once.
func (s *Spec) check() (*pattern, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	if s.Nodes < 2 {
		return nil, fmt.Errorf("scenario %s: need at least 2 nodes", s.Name)
	}
	if _, err := s.topo(); err != nil {
		return nil, err
	}
	if s.FM != 0 && s.FM != 1 && s.FM != 2 {
		return nil, fmt.Errorf("scenario %s: fm must be 1 or 2, not %d", s.Name, s.FM)
	}
	pat, ok := patterns[s.Traffic.Pattern]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown traffic pattern %q", s.Name, s.Traffic.Pattern)
	}
	if s.Traffic.Messages <= 0 {
		return nil, fmt.Errorf("scenario %s: traffic needs messages > 0", s.Name)
	}
	if s.Traffic.Size <= 0 {
		return nil, fmt.Errorf("scenario %s: traffic needs size > 0", s.Name)
	}
	if f := s.badTime(); f != "" {
		return nil, fmt.Errorf("scenario %s: %s is negative or longer than %d ms", s.Name, f, maxMS)
	}
	if s.Assert.MinCompleted < 0 {
		return nil, fmt.Errorf("scenario %s: negative assertion bound", s.Name)
	}
	// A field the pattern never reads is a typoed assertion silently not
	// checked, or a knob silently not turned: worse than an error.
	if f := s.unread(pat.reads); f != "" {
		return nil, fmt.Errorf("scenario %s: pattern %q does not read %s", s.Name, s.Traffic.Pattern, f)
	}
	if pat.check != nil {
		if err := pat.check(*s); err != nil {
			return nil, err
		}
	}
	switch s.Assert.Outcome {
	case "", OutcomeComplete, OutcomeWatchdog:
	default:
		return nil, fmt.Errorf("scenario %s: assert.outcome must be %q or %q", s.Name, OutcomeComplete, OutcomeWatchdog)
	}
	if fp := s.faultPlan(0); fp != nil {
		if err := fp.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
	}
	return pat, nil
}

// maxMS bounds every time field of a spec: the ms fields, and service_us at
// 1000 µs a millisecond. msTime turns each into int64 virtual nanoseconds,
// which the runner adds to the clock and to one another; an hour keeps every
// such sum far inside int64's 292 years, where an unchecked 1e13 ms wrapped
// the clock negative. No scenario runs that long: the default watchdog is
// 50 ms.
const maxMS = 3_600_000

// badTime names the first time field outside [0, maxMS] ("" = none).
func (s *Spec) badTime() string {
	ok := func(ms float64) bool { return ms >= 0 && ms <= maxMS }
	t, a := s.Traffic, s.Assert
	switch {
	case !ok(s.WatchdogMS):
		return "watchdog_ms"
	case !ok(t.DrainMS):
		return "drain_ms"
	case !ok(t.ServiceUS / 1000):
		return "service_us"
	case !ok(a.MaxP99MS):
		return "max_p99_ms"
	case !ok(a.MaxP999MS):
		return "max_p999_ms"
	}
	for i, f := range s.Faults {
		if !ok(f.FlapUpMS) || !ok(f.FlapDownMS) || !ok(f.DownFromMS) || !ok(f.DownUntilMS) {
			return fmt.Sprintf("a *_ms field of fault %d", i)
		}
	}
	return ""
}

// msTime converts scenario-file milliseconds to virtual time.
func msTime(ms float64) fmnet.Time { return fmnet.Time(ms * float64(fmnet.Millisecond)) }

// watchdog resolves the virtual-time budget.
func (s *Spec) watchdog() fmnet.Time {
	ms := s.WatchdogMS
	if ms == 0 {
		ms = DefaultWatchdogMS
	}
	return msTime(ms)
}

// faultPlan converts the spec's fault rules into a netsim plan seeded for
// this run. Returns nil when the scenario injects no faults.
func (s *Spec) faultPlan(seed int64) *fmnet.FaultPlan {
	if len(s.Faults) == 0 {
		return nil
	}
	plan := &fmnet.FaultPlan{Seed: seed}
	for _, f := range s.Faults {
		plan.Rules = append(plan.Rules, fmnet.FaultRule{
			Links:        f.Links,
			DropProb:     f.DropProb,
			CorruptProb:  f.CorruptProb,
			FlapMeanUp:   msTime(f.FlapUpMS),
			FlapMeanDown: msTime(f.FlapDownMS),
			DownFrom:     msTime(f.DownFromMS),
			DownUntil:    msTime(f.DownUntilMS),
			SlowFactor:   f.SlowFactor,
		})
	}
	return plan
}

// ScenarioSeed derives the per-scenario fault seed from the campaign seed
// and the scenario name, so every scenario of a campaign draws an
// uncorrelated (but reproducible) schedule.
func ScenarioSeed(campaignSeed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte("scenario:" + name))
	return campaignSeed ^ int64(h.Sum64())
}

// loadSpec reads and validates one scenario file.
func loadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := decodeSpec(f)
	if err != nil {
		return s, fmt.Errorf("scenario %s: %v", path, err)
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// decodeSpec reads one spec, unvalidated. Unknown fields are rejected: a
// typoed assertion silently not checked is worse than an error.
func decodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}
