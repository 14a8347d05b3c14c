package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// rep is what one repetition of a workload measured: one set-up and one
// measured phase over freshly built inputs and a freshly built simulator.
type rep struct {
	setup, phase time.Duration // host clock
	ops, failed  int64
	mallocs      uint64 // runtime.MemStats.Mallocs over set-up + phase
	events       uint64 // kernel events executed in the measured phase

	// exact holds every value that is a function of the seed alone — modelled
	// (virtual) times, event and packet counts. The run compares it across
	// repetitions and fails, naming the metric, on any difference.
	exact map[string]float64

	// host holds per-layer values measured on the host clock (not exact);
	// the traced run reports those of its recorder-off repetition.
	host layerMetrics

	// problems lists failed output checks (empty on a correct repetition).
	problems []string
}

func (r *rep) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setLatency stores the per-op modelled latency summary under the
// end-to-end names.
func (r *rep) setLatency(l latencySummary) {
	r.exact["virt_op_p50_us"] = l.p50
	r.exact["virt_op_p99_us"] = l.tail
	r.exact["virt_op_tail_pct"] = l.tailPct
	r.exact["virt_op_samples"] = float64(l.n)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	op   string // the unit of every _per_op / ops_per_s metric

	// run performs one repetition at the given seed. rec is nil in the timed
	// runs and non-nil in the traced run.
	run func(seed int64, rec *recorder) (rep, error)

	// layers measures the workload's per-layer metrics (ladder, sub-phases,
	// counters) into m and returns the output checks that failed. It runs
	// only in the traced run, after and apart from the repetitions.
	layers func(seed int64, rec *recorder, m layerMetrics) ([]string, error)
}

// layerMetrics collects per-layer metric values by name.
type layerMetrics map[string]float64

// repClock times one repetition. Mallocs are counted over set-up and phase
// together: the hot paths are allocation-free by design, so a phase-only
// quotient sits near zero where run-to-run noise of a few runtime-internal
// mallocs is a large relative change; with the (deterministic) set-up
// allocations in the numerator the quotient is steady, and one malloc per op
// on a hot path still multiplies it.
type repClock struct {
	start, phaseStart time.Time
	mallocs0          uint64
}

func startRep() *repClock {
	runtime.GC() // start every repetition from a collected heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &repClock{start: time.Now(), mallocs0: ms.Mallocs}
}

// beginPhase marks the end of set-up. Call it from wherever the measured
// phase begins — including from inside a simulated Proc.
func (c *repClock) beginPhase() { c.phaseStart = time.Now() }

func (c *repClock) finish(r *rep) {
	end := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.setup = c.phaseStart.Sub(c.start)
	r.phase = end.Sub(c.phaseStart)
	r.mallocs = ms.Mallocs - c.mallocs0
}

// seedFor derives an independent input stream from the benchmark seed, so
// workloads and their parts never share a stream.
func seedFor(seed int64, salt string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(salt) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= h >> 29
	return int64(h & math.MaxInt64)
}

// payload fills n bytes from a seeded stream: the bytes every receiver
// verifies on delivery.
func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(b)
	return b
}

// sameExact reports the first metric whose value differs between two
// repetitions of one seed ("" when they agree).
func sameExact(a, b map[string]float64) string {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		va, oka := a[k]
		vb, okb := b[k]
		if !oka || !okb || va != vb {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return ""
}
