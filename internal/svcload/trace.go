package svcload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/flowctl"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TraceFormat tags the JSONL trace container. A trace file is the meta
// object on line one, then one record per scheduled request. Because the
// schedule IS the workload — every arrival instant, key, fan-out, and
// payload size, with all remaining behavior deterministic under the
// virtual-time kernel — replaying a trace reproduces the original run's
// report byte for byte.
const TraceFormat = "fmnet-svctrace/1"

// TraceMeta is the trace header: everything needed to rebuild the run the
// schedule was captured from.
type TraceMeta struct {
	Format  string `json:"format"`
	Gen     string `json:"fm"`
	Nodes   int    `json:"nodes"`
	FatTree bool   `json:"fat_tree,omitempty"`
	Mode    string `json:"mode"`
	Seed    int64  `json:"seed"`
	// Per-client request count (every client issues the same number).
	Requests int `json:"requests"`
	// Server cost model, so the replayed service behaves identically.
	ServiceNS int64 `json:"service_ns"`
	// Drain window for fault-tolerant runs.
	DrainNS int64 `json:"drain_ns,omitempty"`
}

// replayHorizon bounds every instant a trace may name: an arrival (t_ns)
// and the drain window (drain_ns). A replaying node polls every pollGap until
// its next arrival, about a million turns per node per virtual second, so a
// far-future instant is a replay that runs for hours of host time; and
// RunNode adds the drain window to the last arrival, which must not
// overflow. One virtual second is over ten times the longest schedule
// anything here captures (the lowest rpc-open rung spans under 60 ms). It is
// a limit of the format: ReadTrace and Capture refuse an instant past it,
// and a generated workload, which is drawn as it runs, is bound only by
// Validate's slowest rate, one request per horizon.
const replayHorizon = sim.Second

// traceRec is one scheduled request. t_ns == 0 marks a closed-loop entry
// (issued on the previous completion rather than at an absolute instant).
type traceRec struct {
	TNS    int64 `json:"t_ns"`
	Client int   `json:"client"`
	Seq    int   `json:"seq"`
	Key    int   `json:"key"`
	Fan    int   `json:"fanout"`
	ReqB   int   `json:"req_b,omitempty"`
	RespB  int   `json:"resp_b,omitempty"`
}

// Trace is a captured request schedule plus the header describing the run
// it came from.
type Trace struct {
	Meta  TraceMeta
	gen   xport.Gen // Meta.Gen, parsed
	sched [][]req
}

// Gen is the FM generation the trace was captured on.
func (t *Trace) Gen() xport.Gen { return t.gen }

// parseGen reads a trace header's generation name.
func parseGen(name string) (xport.Gen, error) {
	for _, g := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		if name == g.String() {
			return g, nil
		}
	}
	return 0, fmt.Errorf("svcload: trace header: unknown FM generation %q", name)
}

// Capture snapshots the fleet's planned schedule as a trace. A generated
// workload is re-drawn from fresh streams, the same numbers its clients draw
// as they run, so the fleet may be captured before, during or after its run.
// A schedule with an arrival past the replay horizon is refused: its trace
// would not read back.
func (f *Fleet) Capture(gen xport.Gen, fatTree bool) (*Trace, error) {
	t := &Trace{
		Meta: TraceMeta{
			Format:    TraceFormat,
			Gen:       gen.String(),
			Nodes:     len(f.spaces),
			FatTree:   fatTree,
			Mode:      string(f.wl.Mode),
			Seed:      f.wl.Seed,
			Requests:  f.wl.Requests,
			ServiceNS: int64(f.cfg.ServiceTime),
			DrainNS:   int64(f.wl.Drain),
		},
		gen: gen,
	}
	switch {
	case f.trace != nil: // records are never written after ReadTrace
		t.sched = f.trace.sched
	case f.clients != nil:
		t.sched = make([][]req, len(f.spaces))
		for c, cl := range newClients(f.wl, len(f.spaces)) {
			rs := make([]req, f.wl.Requests)
			for seq := range rs {
				rs[seq] = cl.draw(&f.wl, seq)
				if rs[seq].T > replayHorizon {
					return nil, fmt.Errorf("svcload: client %d request %d arrives at %v, past the replay horizon %v",
						c, seq, rs[seq].T, replayHorizon)
				}
			}
			t.sched[c] = rs
		}
	default:
		panic("svcload: Capture before Plan/PlanTrace")
	}
	return t, nil
}

// Write serializes the trace as JSONL: meta line, then records in
// (client, seq) order — a fixed order, so identical schedules produce
// identical files.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Meta); err != nil {
		return err
	}
	for c, rs := range t.sched {
		for seq, r := range rs {
			rec := traceRec{
				TNS: int64(r.T), Client: c, Seq: seq,
				Key: r.Key, Fan: r.Fan, ReqB: r.ReqB, RespB: r.RespB,
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace, validating structure as it goes: header
// first, every record's client in range, sequences dense and in order. A
// trace comes from outside the program, so every header field is checked
// before it sizes anything, and every record before replay would index by it.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("svcload: empty trace")
	}
	var meta TraceMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("svcload: trace header: %w", err)
	}
	if meta.Format != TraceFormat {
		return nil, fmt.Errorf("svcload: trace format %q, want %q", meta.Format, TraceFormat)
	}
	if meta.Nodes < 2 || meta.Nodes > flowctl.MaxNodes {
		return nil, fmt.Errorf("svcload: trace header: %d nodes outside [2, %d]", meta.Nodes, flowctl.MaxNodes)
	}
	gen, err := parseGen(meta.Gen)
	if err != nil {
		return nil, err
	}
	// Write echoes the mode, and an invalid byte comes back as a three-byte
	// replacement character: an unknown mode could write a header line
	// longer than ReadTrace takes.
	switch Mode(meta.Mode) {
	case ModeOpen, ModeClosed, ModeIncast:
	default:
		return nil, fmt.Errorf("svcload: trace header: unknown mode %q", meta.Mode)
	}
	if meta.ServiceNS < 0 || meta.DrainNS < 0 {
		return nil, fmt.Errorf("svcload: trace header: negative time field")
	}
	if meta.DrainNS > int64(replayHorizon) {
		return nil, fmt.Errorf("svcload: trace header: drain_ns %d past the replay horizon %d", meta.DrainNS, int64(replayHorizon))
	}
	sched := make([][]req, meta.Nodes)
	line := 1
	var rec traceRec // one record for every row: Unmarshal's target escapes
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec = traceRec{}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("svcload: trace line %d: %w", line, err)
		}
		if rec.Client < 0 || rec.Client >= meta.Nodes {
			return nil, fmt.Errorf("svcload: trace line %d: client %d outside [0,%d)", line, rec.Client, meta.Nodes)
		}
		if rec.Seq != len(sched[rec.Client]) {
			return nil, fmt.Errorf("svcload: trace line %d: client %d seq %d out of order (want %d)",
				line, rec.Client, rec.Seq, len(sched[rec.Client]))
		}
		// Replica j of the key is node (key+j) mod n: the last replica's
		// index must not overflow.
		if rec.Fan < 1 || rec.Key < 0 || rec.Key > math.MaxInt-(rec.Fan-1) ||
			rec.ReqB < 0 || rec.RespB < 0 || rec.TNS < 0 {
			return nil, fmt.Errorf("svcload: trace line %d: invalid record", line)
		}
		if rec.TNS > int64(replayHorizon) {
			return nil, fmt.Errorf("svcload: trace line %d: t_ns %d past the replay horizon %d", line, rec.TNS, int64(replayHorizon))
		}
		sched[rec.Client] = append(sched[rec.Client], req{
			T: sim.Time(rec.TNS), Key: rec.Key, Fan: rec.Fan,
			ReqB: rec.ReqB, RespB: rec.RespB,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Trace{Meta: meta, gen: gen, sched: sched}, nil
}

// PlanTrace installs a captured schedule on the fleet, replacing generation.
func (f *Fleet) PlanTrace(t *Trace) error {
	n := len(f.spaces)
	if t.Meta.Nodes != n {
		return fmt.Errorf("svcload: trace for %d nodes, fleet has %d", t.Meta.Nodes, n)
	}
	wl := Workload{
		Mode:  Mode(t.Meta.Mode),
		Seed:  t.Meta.Seed,
		Drain: sim.Time(t.Meta.DrainNS),
	}
	planned, maxBody := int64(0), 0
	for c, rs := range t.sched {
		wl.Requests = max(wl.Requests, len(rs))
		planned += int64(len(rs))
		for seq, r := range rs {
			if r.Fan > n {
				return fmt.Errorf("svcload: trace client %d seq %d: fanout %d exceeds %d nodes", c, seq, r.Fan, n)
			}
			maxBody = max(maxBody, r.ReqB, r.RespB)
		}
	}
	if wl.Requests == 0 {
		return fmt.Errorf("svcload: trace has no requests")
	}
	return f.install(wl, nil, t, planned, maxBody)
}
