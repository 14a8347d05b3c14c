package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/mpifm"
	"repro/internal/xport"
)

// The wall-clock engine suite: where every other bench in this package
// measures VIRTUAL time (the model's answer), this one measures the
// SIMULATOR — events per wall-clock second, allocations per rank, and how
// far the rank axis can be pushed before wall-clock cost explodes. It is the
// allreduce scale ladder and nothing else: the paper's CP-PACS-class
// machines ran O(1000) nodes, so the fabric suites must be runnable at
// 512-1024 ranks, and that cost is a trajectory of numbers (BENCH_*.json),
// not a one-off claim. The kernel floor, the two-node steady state and the
// RPC fleet are measured by benchmark/ (kernel-churn, pt2pt-sweep,
// rpc-open), with repetitions.

// PerfEntry is one measurement of the engine itself.
type PerfEntry struct {
	Name   string `json:"name"`
	Fabric string `json:"fabric,omitempty"`
	Ranks  int    `json:"ranks,omitempty"`
	SizeB  int    `json:"size_b,omitempty"`
	Ops    int64  `json:"ops,omitempty"` // unit of AllocsPerOp: ranks

	VirtualUS    float64 `json:"virtual_us,omitempty"` // modeled result, determinism-pinned
	Digest       string  `json:"digest,omitempty"`     // FNV-1a of every rank's (start, end), determinism-pinned
	WallMS       float64 `json:"wall_ms"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// PerfReport is the machine-readable perf trajectory written to
// BENCH_PR<n>.json.
type PerfReport struct {
	Schema    string `json:"schema"`
	PR        int    `json:"pr"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS at report time: the parallelism bound the wall-clock
	// numbers were measured under.
	GOMAXPROCS int         `json:"gomaxprocs"`
	Entries    []PerfEntry `json:"entries"`
	// Rebaseline, written by hand, lets the rows it names move what the
	// model computes (see GateTrajectory).
	Rebaseline *Rebaseline `json:"rebaseline,omitempty"`
}

// PerfSchema identifies the report layout for downstream tooling.
const PerfSchema = "fmnet-perf/1"

// PerfConfig shapes the suite.
type PerfConfig struct {
	// CollectiveRanks is the rank axis of the collective scaling sweep.
	// Rank counts above 256 require a multi-stage fabric (one crossbar
	// tops out at 256 one-byte-routable ports), so the sweep runs on the
	// fat tree, with a torus point for the second fabric family.
	CollectiveRanks []int
	TorusRanks      []int
	Size            int // bytes per rank contribution

	// BigRanks adds one extra fat-tree allreduce row at this rank count
	// (the CP-PACS-scale point; 0 = none).
	BigRanks int
}

// DefaultPerfConfig runs the full suite, including the 1024-rank point.
func DefaultPerfConfig() PerfConfig {
	return PerfConfig{
		CollectiveRanks: []int{64, 256, 512, 1024},
		TorusRanks:      []int{256, 512},
		Size:            1024,
	}
}

// hostCost is the host-side clock: fn's wall time and allocation deltas.
// The simulation kernel runs all Procs on the measuring goroutine's
// schedule, so the deltas are attributable to the run (modulo runtime
// background noise, which the large op counts drown out).
func hostCost(fn func()) (wall time.Duration, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return time.Since(t0), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// withCost fills the simulator-cost columns every row shares from one run's
// wall time, event count and allocation deltas; ops is the unit the per-op
// columns are quoted in.
func (e PerfEntry) withCost(wall time.Duration, events, mallocs, bytes uint64, ops int64) PerfEntry {
	e.Ops = ops
	e.WallMS = wall.Seconds() * 1e3
	e.Events = int64(events)
	e.EventsPerSec = float64(events) / wall.Seconds()
	e.AllocsPerOp = float64(mallocs) / float64(ops)
	e.BytesPerOp = float64(bytes) / float64(ops)
	return e
}

// PerfCollective measures one allreduce round at scale on fabric f: virtual
// time (the model's answer, bit-stable across engine changes) alongside the
// simulator's wall-clock cost to produce it, per participating rank.
func PerfCollective(f Fabric, ranks, size int) PerfEntry {
	pl, comms := mpiWorld(xport.GenFM2.Machine(), ranks, f, mpifm.Options{})
	size = collSize(size)
	stamps := spawnCollective(pl, comms, CollAllreduce, mpifm.AlgoAuto, size, 1)
	wall, mallocs, bytes := hostCost(func() { run(pl, "perf allreduce ranks=%d on %s", ranks, f) })
	e := PerfEntry{Name: "allreduce", Fabric: f.String(), Ranks: ranks, SizeB: size,
		VirtualUS: span(stamps).Micros(), Digest: digest(stamps)}
	return e.withCost(wall, pl.K.Events(), mallocs, bytes, int64(ranks))
}

// digest is FNV-1a over every rank's raw (start, end) stamps in rank order:
// where span keeps two of them, this holds all, so a rank that finishes
// later without moving the slowest one still changes the row.
func digest(stamps []stamp) string {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range stamps {
		binary.LittleEndian.PutUint64(b[:8], uint64(s.start))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.end))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// perfSessions is how many fresh sessions each row is measured in. A row's
// host fields are the best of them — least wall_ms (events/sec is that
// session's), least allocs/op and bytes/op — so a cost only a process's
// first session pays, such as creating the coroutines later sessions reuse,
// is not charged to whichever row runs first.
const perfSessions = 2

// bestOf measures one row in perfSessions fresh sessions. What the
// simulation computed — events, virtual_us and digest — must be equal in all
// of them: a deterministic simulation that ran differently twice fails the
// row as a failed run does (run).
func bestOf(measure func() PerfEntry) PerfEntry {
	best := measure()
	for i := 1; i < perfSessions; i++ {
		e := measure()
		if e.Events != best.Events || e.VirtualUS != best.VirtualUS || e.Digest != best.Digest {
			panic(fmt.Sprintf("bench: perf %s: session %d ran %d events to %v us (digest %s), session 1 ran %d to %v us (digest %s)",
				gateKey(e), i+1, e.Events, e.VirtualUS, e.Digest, best.Events, best.VirtualUS, best.Digest))
		}
		if e.WallMS < best.WallMS {
			best.WallMS, best.EventsPerSec = e.WallMS, e.EventsPerSec
		}
		best.AllocsPerOp = min(best.AllocsPerOp, e.AllocsPerOp)
		best.BytesPerOp = min(best.BytesPerOp, e.BytesPerOp)
	}
	return best
}

// RunPerfSuite executes the whole suite.
func RunPerfSuite(cfg PerfConfig) []PerfEntry {
	var entries []PerfEntry
	ftRanks := cfg.CollectiveRanks
	if cfg.BigRanks > 0 {
		ftRanks = append(append([]int(nil), ftRanks...), cfg.BigRanks)
	}
	for _, n := range ftRanks {
		entries = append(entries, bestOf(func() PerfEntry { return PerfCollective(FabFatTree, n, cfg.Size) }))
	}
	for _, n := range cfg.TorusRanks {
		entries = append(entries, bestOf(func() PerfEntry { return PerfCollective(FabTorus, n, cfg.Size) }))
	}
	return entries
}

// WritePerfReport renders the suite as a table and, when jsonPath is
// non-empty, writes the machine-readable trajectory file; its pr field is
// the <n> of a BENCH_PR<n>.json file name (0 for any other name).
func WritePerfReport(w io.Writer, cfg PerfConfig, jsonPath string) error {
	fmt.Fprintf(w, "Engine wall-clock suite (simulator cost, not modeled time):\n")
	fmt.Fprintf(w, "  %-22s %-8s %6s  %12s  %10s  %12s  %10s  %10s\n",
		"bench", "fabric", "ranks", "virtual_us", "wall_ms", "events/sec", "allocs/op", "bytes/op")
	entries := RunPerfSuite(cfg)
	for _, e := range entries {
		fmt.Fprintf(w, "  %-22s %-8s %6d  %12.1f  %10.1f  %12.0f  %10.2f  %10.1f\n",
			e.Name, e.Fabric, e.Ranks, e.VirtualUS, e.WallMS, e.EventsPerSec, e.AllocsPerOp, e.BytesPerOp)
	}
	if jsonPath == "" {
		return nil
	}
	rep := PerfReport{
		Schema:     PerfSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Entries:    entries,
	}
	_, _ = fmt.Sscanf(filepath.Base(jsonPath), "BENCH_PR%d.json", &rep.PR) // any other name leaves pr 0
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	return nil
}

// WriteJSON renders a report the way this repo commits them: two-space
// indent, trailing newline.
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
