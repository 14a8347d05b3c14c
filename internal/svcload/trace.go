package svcload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

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
//
// A record line has a fixed grammar, a subset of JSON: one flat object
// whose members are t_ns, client, seq, key, fanout, req_b and resp_b, each
// at most once and in any order, each a JSON integer (an optional '-', no
// leading zeros) that fits in int64, with JSON whitespace between tokens.
// An absent member is 0. An unknown, duplicate, escaped or case-variant
// key, null, a string, a fraction or exponent, a nested value or trailing
// bytes make the line, and the trace, invalid. Write puts the members in
// the order above and omits req_b and resp_b when 0.
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
// decode and append are the record's codec; the tags let the tests hold
// both against encoding/json.
type traceRec struct {
	TNS    int64 `json:"t_ns"`
	Client int   `json:"client"`
	Seq    int   `json:"seq"`
	Key    int   `json:"key"`
	Fan    int   `json:"fanout"`
	ReqB   int   `json:"req_b,omitempty"`
	RespB  int   `json:"resp_b,omitempty"`
}

// recordKeys are a record's members, in traceRec's field order.
var recordKeys = [...]string{"t_ns", "client", "seq", "key", "fanout", "req_b", "resp_b"}

// decode parses one record line of TraceFormat's grammar in place, without
// reflection; only a refusal allocates, for its error.
func (r *traceRec) decode(line []byte) error {
	var v [len(recordKeys)]int64
	var seen uint8
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return errors.New("record is not an object")
	}
	// An empty object, or members separated by commas.
	for i = skipSpace(line, i+1); seen != 0 || i == len(line) || line[i] != '}'; {
		if i == len(line) || line[i] != '"' {
			return fmt.Errorf("byte %d: want a key", i)
		}
		end := bytes.IndexByte(line[i+1:], '"')
		if end < 0 {
			return fmt.Errorf("byte %d: unterminated key", i)
		}
		name := line[i+1 : i+1+end]
		k := 0
		for k < len(recordKeys) && string(name) != recordKeys[k] {
			k++
		}
		if k == len(recordKeys) {
			return fmt.Errorf("unknown key %q", name)
		}
		if seen&(1<<k) != 0 {
			return fmt.Errorf("duplicate key %q", name)
		}
		seen |= 1 << k
		i = skipSpace(line, i+2+end)
		if i == len(line) || line[i] != ':' {
			return fmt.Errorf("byte %d: want ':' after %q", i, name)
		}
		at := skipSpace(line, i+1)
		var ok bool
		if v[k], i, ok = parseInt(line, at); !ok {
			return fmt.Errorf("byte %d: %q wants an integer that fits in int64", at, name)
		}
		if i = skipSpace(line, i); i == len(line) || line[i] != ',' {
			break
		}
		i = skipSpace(line, i+1)
	}
	if i == len(line) || line[i] != '}' {
		return fmt.Errorf("byte %d: want ',' or '}'", i)
	}
	if i = skipSpace(line, i+1); i != len(line) {
		return fmt.Errorf("byte %d: trailing bytes after the record", i)
	}
	*r = traceRec{TNS: v[0], Client: int(v[1]), Seq: int(v[2]), Key: int(v[3]),
		Fan: int(v[4]), ReqB: int(v[5]), RespB: int(v[6])}
	return nil
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseInt reads the JSON integer at b[i:], returning its value, the index
// past it, and whether it was one that fits in int64.
func parseInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64 // the magnitude, at most 1<<63
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, i, false
		}
		if u = u*10 + uint64(b[i]-'0'); u > 1<<63 {
			return 0, i, false
		}
	}
	switch {
	case i == start, b[start] == '0' && i-start > 1:
		return 0, i, false
	case neg:
		return -int64(u), i, true // -(1<<63) wraps to itself
	case u > math.MaxInt64:
		return 0, i, false
	}
	return int64(u), i, true
}

// append writes the record as one line, members in recordKeys' order and
// req_b and resp_b omitted when 0: what decode reads back, and the bytes
// encoding/json writes for traceRec.
func (r *traceRec) append(b []byte) []byte {
	b = append(b, `{"t_ns":`...)
	b = strconv.AppendInt(b, r.TNS, 10)
	b = append(b, `,"client":`...)
	b = strconv.AppendInt(b, int64(r.Client), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"key":`...)
	b = strconv.AppendInt(b, int64(r.Key), 10)
	b = append(b, `,"fanout":`...)
	b = strconv.AppendInt(b, int64(r.Fan), 10)
	if r.ReqB != 0 {
		b = append(b, `,"req_b":`...)
		b = strconv.AppendInt(b, int64(r.ReqB), 10)
	}
	if r.RespB != 0 {
		b = append(b, `,"resp_b":`...)
		b = strconv.AppendInt(b, int64(r.RespB), 10)
	}
	return append(b, "}\n"...)
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
// identical files. Each record is appended straight into the writer's
// buffer.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(t.Meta); err != nil {
		return err
	}
	for c, rs := range t.sched {
		for seq, r := range rs {
			rec := traceRec{
				TNS: int64(r.T), Client: c, Seq: seq,
				Key: r.Key, Fan: r.Fan, ReqB: r.ReqB, RespB: r.RespB,
			}
			if _, err := bw.Write(rec.append(bw.AvailableBuffer())); err != nil {
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
	var rec traceRec
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := rec.decode(sc.Bytes()); err != nil {
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
