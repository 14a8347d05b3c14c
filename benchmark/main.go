// Command benchmark is the repository's benchmark: five workloads, host
// (simulator-speed) and virtual (model-fidelity) metrics end to end, and a
// layer-ladder trace that says where a wall-clock second goes. README.md in
// this directory explains the choices; BENCHMARK.json at the repo root is
// the contract it is run under.
//
//	go run ./benchmark -seed 1998                 all workloads, end-to-end table
//	go run ./benchmark -seed 1998 -trace 1        ... and the traced per-layer run
//	go run ./benchmark -seed 1998 -aa             the set twice, A/A comparison
//	go run ./benchmark -workload rpc-open -seed 7 -seconds 10 -trace 0
//
// With -workload the process runs that one workload and prints, as the last
// line of standard output, one JSON object {correct, attempted, failed,
// metrics}. Without it the process re-executes itself once per workload, so
// every workload's peak RSS is that of a process that ran nothing else.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var workloads = []workload{
	{
		name: "kernel-churn",
		why:  "bare sim.Kernel, 4096 Procs (tickers, Chan pairs, Resource groups): sim does all the work, so a heap, handoff or Chan change shows undiluted and a change above sim must not move it",
		op:   "one kernel event",
		run:  runChurn(churnFull), layers: churnLayers(churnFull),
	},
	{
		name: "pt2pt-sweep",
		why:  "the paper's two-node measurement: four upper layers over fm1 and fm2, stream and ping-pong at 16-2048 B; per-message cost in lanai/fm/xport/upper dominates; the only workload with reference results",
		op:   "one message delivered",
		run:  runPt2pt(pt2ptFull), layers: pt2ptLayers(pt2ptFull),
	},
	{
		name: "allreduce-fattree",
		why:  "fmnet session, 256 ranks on a fat tree, MPI Allreduce rounds: three-hop routes work netsim and blocked ranks poll, so events per op, credit traffic and scale-dependent cost show here only",
		op:   "one rank completing one Allreduce round",
		run:  runAllreduce(allreduceFull), layers: allreduceLayers(allreduceFull, 2),
	},
	{
		name: "rpc-open",
		why:  "32-node fat tree, open-loop Poisson RPCs at 2000-8000 req/s per client: many small flows; low rungs are idle-dominated, the top rung work-dominated, so idle-path and hot-path changes separate",
		op:   "one completed request",
		run:  runRPC(rpcFull),
	},
	{
		name: "chaos-campaign",
		why:  "the benchmark's own 16-32 node fault scenarios under seeded campaigns: the only workload on netsim's fault path, the watchdog, scenario reporting and short-lived session set-up and tear-down",
		op:   "one scenario run",
		run:  runChaos(chaosFull), layers: chaosLayers(chaosFull),
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as a JSON line (default: all, one child process each)")
		seed     = flag.Int64("seed", 1998, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "host seconds of measured phase per run (at least three repetitions)")
		trace    = flag.Int("trace", 0, "0: timed runs, end-to-end metrics; 1: traced run, per-layer metrics")
		traceDir = flag.String("tracedir", ".bench_build/trace", "where the traced run writes its span files, relative to the working directory")
		aa       = flag.Bool("aa", false, "run the whole set twice, alternating workload order, and compare the two against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Every timed simulation is sequential: one control token passed from
	// goroutine to goroutine. On more than one P an idle P steals the woken
	// goroutine at random, which on the 2-core reference box cost a quarter
	// of the throughput and spread run medians by +-15%; on one P the same
	// runs agree within a few percent. The traced run raises it again around
	// its two parallel measurements (sim.Engine, par.ForEach).
	runtime.GOMAXPROCS(1)

	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *trace == 1, *traceDir, *aa))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, *traceDir)
	} else {
		res, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the one JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMiB is the high-water mark of this process's resident set. On Linux
// it is read from VmHWM, which belongs to the address space exec created:
// ru_maxrss would not do, because it is never less than the launcher's own
// resident set at the moment it forked (under `go run` that is the go
// tool's, several times any workload's). Elsewhere ru_maxrss is what there is.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// runTimed is the timed run: repetitions with the recorder off until the
// measured phases add up to `seconds` (never fewer than three), host metrics
// as medians over repetitions, exact metrics required identical in all.
func runTimed(w *workload, seed int64, seconds float64) (result, error) {
	fmt.Printf("workload %s  seed %d  nproc %d  GOMAXPROCS %d  op: %s\n", w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.op)
	var (
		reps    []rep
		phases  float64
		problem []string
	)
	for len(reps) < 3 || phases+reps[len(reps)-1].phase.Seconds()/2 < seconds {
		r, err := w.run(seed, nil)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		phases += r.phase.Seconds()
		if d := sameExact(reps[0].exact, r.exact); d != "" {
			problem = append(problem, fmt.Sprintf("repetition %d is not deterministic: %s", len(reps), d))
		}
		problem = append(problem, r.problems...)
	}
	var setup, opsPerS, allocs []float64
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		opsPerS = append(opsPerS, float64(r.ops)/r.phase.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	host := map[string][]float64{
		"setup_s": setup, "host_ops_per_s": opsPerS, "host_allocs_per_op": allocs,
		"host_peak_rss_mb": {peakRSSMiB()},
	}
	first := reps[0].exact
	fmt.Printf("  %d repetitions, %.1f s measured; %d ops attempted, %d failed\n", len(reps), phases, res.Attempted, res.Failed)
	fmt.Printf("  %-22s %-8s %16s %16s %16s  %s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range endToEnd {
		var q1, med, q3 float64
		n := len(reps)
		if vs, ok := host[d.name]; ok {
			q1, med, q3 = quartiles(vs)
			n = len(vs)
		} else {
			v, ok := first[d.name]
			if !ok {
				return result{}, fmt.Errorf("workload did not report %s", d.name)
			}
			q1, med, q3 = v, v, v // exact: identical in every repetition, or the run is incorrect
		}
		res.Metrics[d.name] = metricValue{med, d.unit}
		fmt.Printf("  %-22s %-8s %16.6g %16.6g %16.6g  %d\n", d.name, d.unit, med, q1, q3, n)
	}
	fmt.Printf("  host_ops_per_s by repetition: %.6g\n", opsPerS)
	fmt.Printf("  virt_op_p99_us is the p%.4g of %d samples (highest percentile with >= 10 samples beyond it, capped at p99)\n",
		first["virt_op_tail_pct"], int(first["virt_op_samples"]))
	res.Correct = reportProblems(problem) && res.Failed == 0
	return res, nil
}

// reportProblems prints each distinct failed check once and reports whether
// there were none.
func reportProblems(problems []string) bool {
	seen := map[string]bool{}
	for _, p := range problems {
		if !seen[p] {
			seen[p] = true
			fmt.Printf("  CHECK FAILED: %s\n", p)
		}
	}
	return len(problems) == 0
}

// runTraced is the traced run: one repetition with the recorder off (the
// baseline for trace.overhead_pct), one with it on, then the workload's
// per-layer measurements. It writes the spans as Chrome-trace JSON.
func runTraced(w *workload, seed int64, dir string) (result, error) {
	fmt.Printf("workload %s  seed %d  nproc %d  GOMAXPROCS %d  traced run\n", w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	base, err := w.run(seed, nil)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	traced, err := w.run(seed, rec)
	if err != nil {
		return result{}, err
	}
	problem := append(append([]string(nil), base.problems...), traced.problems...)
	if d := sameExact(base.exact, traced.exact); d != "" {
		problem = append(problem, "traced repetition differs from untraced: "+d)
	}
	m := layerMetrics{}
	for k, v := range traced.exact {
		m[k] = v
	}
	for k, v := range base.host {
		m[k] = v
	}
	baseRate := float64(base.ops) / base.phase.Seconds()
	tracedRate := float64(traced.ops) / traced.phase.Seconds()
	m["trace.overhead_pct"] = 100 * (baseRate - tracedRate) / baseRate
	m["sim.events_per_op"] = float64(traced.events) / float64(traced.ops)
	if traced.events > 0 {
		m["sim.host_ns_per_event"] = float64(base.phase.Nanoseconds()) / float64(base.events)
		m["sim.events_per_s"] = float64(base.events) / base.phase.Seconds()
	}
	if w.layers != nil {
		bad, err := w.layers(seed, rec, m)
		if err != nil {
			return result{}, err
		}
		problem = append(problem, bad...)
	}
	for layer, us := range layerSelfVirt(rec.spans) {
		rec.count("end", "span_virt_self_us."+layer, us)
	}
	path, err := rec.write(dir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	res := result{
		Attempted: base.ops + traced.ops, Failed: base.failed + traced.failed,
		Metrics: map[string]metricValue{},
	}
	fmt.Printf("  %d spans, %d counters -> %s\n", len(rec.spans), len(rec.counters), path)
	fmt.Printf("  %-40s %-8s %16s\n", "metric", "unit", "value")
	for _, d := range perLayer {
		v := m[d.name] // 0: this workload does not exercise that layer
		res.Metrics[d.name] = metricValue{v, d.unit}
		if _, ok := m[d.name]; ok {
			fmt.Printf("  %-40s %-8s %16.6g\n", d.name, d.unit, v)
		}
	}
	extra := make([]string, 0)
	for k := range m {
		if _, ok := res.Metrics[k]; !ok && !strings.HasPrefix(k, "cell.") { // per-cell times only feed the exactness guard
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-40s %-8s %16.6g\n", k, "-", m[k])
	}
	res.Correct = reportProblems(problem) && res.Failed == 0
	return res, nil
}

// hostStamp describes the machine and build a report was measured on.
func hostStamp(seed int64) string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s %s/%s  commit %s  seed %d  %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit(), seed, time.Now().UTC().Format(time.RFC3339))
}
