package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sim"
)

// The benchmark's recorder. It lives entirely in the benchmark's own files:
// spans wrap the calls the benchmark's driver Procs make INTO a layer, and
// counters are snapshots of the layers' public Stats() accessors. Nothing
// inside the simulator is instrumented (that is ROADMAP item 4).
//
// A nil *recorder is the switched-off recorder: every method is a no-op on
// nil, so the timed runs pay one nil check per driver call and nothing else.
//
// One simulation runs one Proc at a time (a single control token), so spans
// are appended without locking. Workloads that run simulations on several OS
// threads (par.ForEach) record from the coordinating goroutine only.

// span is one timed call from a driver Proc into a layer.
type span struct {
	id     int
	parent int // span id, 0 = root
	name   string
	layer  string
	op     int64 // the op (message, round, request, scenario run) it belongs to
	tid    int   // driver Proc (rank / node / client)

	virtStart, virtEnd sim.Time
	hostStart, hostEnd time.Duration // since recorder start
}

type counterSnap struct {
	phase string
	name  string
	value float64
}

type recorder struct {
	t0       time.Time
	spans    []span
	counters []counterSnap
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 when recording is off).
func (r *recorder) begin(p *sim.Proc, tid int, parent int, layer, name string, op int64) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, name: name, layer: layer, op: op, tid: tid,
		virtStart: p.Now(), hostStart: time.Since(r.t0),
	})
	return len(r.spans)
}

// end closes a span opened by begin.
func (r *recorder) end(p *sim.Proc, id int) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.virtEnd, s.hostEnd = p.Now(), time.Since(r.t0)
}

// hostSpan records a span around a whole simulation (one scenario run): fn
// runs it and returns its modelled time, which becomes the span's virtual
// extent.
func (r *recorder) hostSpan(tid int, layer, name string, op int64, fn func() sim.Time) {
	if r == nil {
		fn()
		return
	}
	s := span{id: len(r.spans) + 1, name: name, layer: layer, op: op, tid: tid, hostStart: time.Since(r.t0)}
	s.virtEnd = fn()
	s.hostEnd = time.Since(r.t0)
	r.spans = append(r.spans, s)
}

// count records one counter value at a phase boundary.
func (r *recorder) count(phase, name string, v float64) {
	if r == nil {
		return
	}
	r.counters = append(r.counters, counterSnap{phase, name, v})
}

// selfTimes returns every span's virtual self time: its duration minus the
// part of that interval its direct children cover (overlapping children are
// merged first, so concurrent children are not subtracted twice). Host self
// time is deliberately not derived from spans: a blocking call inside one
// simulated Proc lets every other Proc run, so a span's host interval holds
// other Procs' work. Host self time comes from the ladder differences.
func selfTimes(spans []span) map[int]sim.Time {
	kids := make(map[int][][2]sim.Time)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]sim.Time{s.virtStart, s.virtEnd})
		}
	}
	self := make(map[int]sim.Time, len(spans))
	for _, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi sim.Time
		hi = s.virtStart
		for _, c := range iv {
			lo, end := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if end > s.virtEnd {
				end = s.virtEnd
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.id] = s.virtEnd - s.virtStart - covered
	}
	return self
}

// layerSelfVirt sums virtual self time per layer, in virtual microseconds.
func layerSelfVirt(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.layer] += self[s.id].Micros()
	}
	return out
}

// spanMedianVirtUS is the median virtual duration of the spans with the
// given layer and name, in virtual microseconds (0 when there are none).
func (r *recorder) spanMedianVirtUS(layer, name string) float64 {
	if r == nil {
		return 0
	}
	var ds []float64
	for _, s := range r.spans {
		if s.layer == layer && s.name == name {
			ds = append(ds, (s.virtEnd - s.virtStart).Micros())
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// chromeEvent is one record of the Chrome trace-event format ("X" =
// complete event). ts/dur are VIRTUAL microseconds — the clock a reader of
// a simulator trace cares about — and the host interval rides in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome-trace JSON and the counters beside them,
// and returns the span file's path.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(r.spans)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X", TS: s.virtStart.Micros(),
			Dur: (s.virtEnd - s.virtStart).Micros(), PID: 1, TID: s.tid,
			Args: map[string]any{
				"span": s.id, "parent": s.parent, "op": s.op,
				"virt_self_us":  self[s.id].Micros(),
				"host_start_us": float64(s.hostStart.Nanoseconds()) / 1e3,
				"host_dur_us":   float64((s.hostEnd - s.hostStart).Nanoseconds()) / 1e3,
			},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return "", err
		}
	}
	fmt.Fprint(w, `],"counters":`)
	type cjson struct {
		Phase string  `json:"phase"`
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	cs := make([]cjson, len(r.counters))
	for i, c := range r.counters {
		cs[i] = cjson{c.phase, c.name, c.value}
	}
	if err := enc.Encode(cs); err != nil {
		f.Close()
		return "", err
	}
	fmt.Fprint(w, "}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
