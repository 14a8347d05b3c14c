package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// chaos-campaign: the benchmark's own scenario specs (chaos/*.json, 16-32
// nodes) run through scenario.Run under campaign seeds derived from -seed.
// It is the only workload on netsim's fault path (per-link RNG draws, outage
// windows, the loss registry), the watchdog, scenario reporting and
// short-lived session set-up and tear-down: the same netsim/fm code the clean
// workloads use, used differently, so a clean-path shortcut that taxes the
// fault path shows here and nowhere else.

//go:embed chaos/*.json
var chaosFS embed.FS

type chaosSize struct {
	seeds int // campaign seeds per repetition
}

var chaosFull = chaosSize{seeds: 10}

// chaosSpecs parses and validates the embedded scenario files, in name order.
func chaosSpecs() ([]scenario.Spec, error) {
	names, err := chaosFS.ReadDir("chaos")
	if err != nil {
		return nil, err
	}
	var specs []scenario.Spec
	for _, e := range names {
		raw, err := chaosFS.ReadFile("chaos/" + e.Name())
		if err != nil {
			return nil, err
		}
		var sp scenario.Spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return nil, fmt.Errorf("chaos/%s: %w", e.Name(), err)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("chaos/%s: %w", e.Name(), err)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// repoRoot finds the module root above the working directory: the committed
// campaigns live beside go.mod, and go test runs from the package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// checkGoldens replays the committed campaigns at the committed seed and
// compares them byte for byte with their golden reports.
func checkGoldens() []string {
	root, err := repoRoot()
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for _, name := range []string{"smoke", "svc"} {
		dir := filepath.Join(root, "campaigns", name)
		c, err := scenario.RunCampaign(dir, scenario.DefaultSeed)
		if err != nil {
			bad = append(bad, fmt.Sprintf("campaigns/%s: %v", name, err))
			continue
		}
		golden, err := os.ReadFile(filepath.Join(dir, scenario.GoldenName))
		if err != nil {
			bad = append(bad, fmt.Sprintf("campaigns/%s: %v", name, err))
		} else if !bytes.Equal(c.Marshal(), golden) {
			bad = append(bad, fmt.Sprintf("campaigns/%s no longer matches its golden.json", name))
		}
	}
	return bad
}

// chaosSeeds derives the campaign seeds of one repetition.
func chaosSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seedFor(seed, "chaos-campaign:"+strconv.Itoa(i))
	}
	return seeds
}

// runCampaigns runs every spec under every seed on `workers` OS threads and
// returns the reports in (seed, spec) order. A recorder may be passed with
// one worker only: nothing guards it.
func runCampaigns(specs []scenario.Spec, seeds []int64, workers int, rec *recorder) []scenario.Report {
	reports := make([]scenario.Report, len(seeds)*len(specs))
	par.ForEach(len(reports), workers, func(i int) {
		spec := specs[i%len(specs)]
		rec.hostSpan(i%len(specs), "scenario", "Run."+spec.Name, int64(i), func() sim.Time {
			reports[i] = scenario.Run(spec, seeds[i/len(specs)])
			return sim.Time(reports[i].VirtualNS)
		})
	})
	return reports
}

// digest folds the reports' exact bytes into one number the exactness guard
// can compare: a repeat of the seed list must marshal to identical bytes.
func digest(reports []scenario.Report) float64 {
	h := fnv.New64a()
	for i := range reports {
		h.Write(reports[i].Marshal())
	}
	return float64(h.Sum64() >> 11) // 53 bits: exact in a float64
}

func runChaos(sz chaosSize) func(seed int64, rec *recorder) (rep, error) {
	return func(seed int64, rec *recorder) (rep, error) {
		r := rep{exact: map[string]float64{}, host: layerMetrics{}}
		clk := startRep()
		specs, err := chaosSpecs()
		if err != nil {
			return r, fmt.Errorf("chaos-campaign: %w", err)
		}
		r.problems = append(r.problems, checkGoldens()...)
		seeds := chaosSeeds(seed, sz.seeds)
		clk.beginPhase()
		reports := runCampaigns(specs, seeds, 1, rec)
		clk.finish(&r)

		var (
			virt                                          int64
			lat                                           []float64
			dropped, down, corrupted, crc, ring, watchdog int64
		)
		for _, rp := range reports {
			r.ops++
			if !rp.Passed {
				r.failed++
				if len(r.problems) < 8 {
					r.failf("scenario %s under seed %d failed: %v", rp.Scenario, rp.Seed, rp.Failures)
				}
			}
			virt += rp.VirtualNS
			lat = append(lat, float64(rp.VirtualNS)/1e3)
			r.events += rp.Events
			dropped, down, corrupted = dropped+rp.Dropped, down+rp.DownDropped, corrupted+rp.Corrupted
			crc, ring = crc+rp.CRCDropped, ring+rp.RingDropped
			if rp.Outcome == scenario.OutcomeWatchdog {
				watchdog++
			}
		}
		r.exact["virt_time_us"] = float64(virt) / 1e3
		r.setLatency(summarize(lat))
		r.exact["reports_digest"] = digest(reports)
		r.exact["sim.events"] = float64(r.events)
		r.exact["scenario.events_per_run"] = float64(r.events) / float64(r.ops)
		r.exact["scenario.watchdog_outcomes"] = float64(watchdog)
		r.exact["netsim.dropped"], r.exact["netsim.down_dropped"], r.exact["netsim.corrupted"] = float64(dropped), float64(down), float64(corrupted)
		r.exact["lanai.crc_dropped"], r.exact["lanai.ring_dropped"] = float64(crc), float64(ring)
		r.host["scenario.host_ms_per_run"] = r.phase.Seconds() * 1e3 / float64(r.ops)
		return r, nil
	}
}

// chaosLayers repeats the seed list through par.ForEach on every P: replica
// parallelism must change host time only, never a byte of any report.
func chaosLayers(sz chaosSize) func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	return func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
		specs, err := chaosSpecs()
		if err != nil {
			return nil, err
		}
		seeds := chaosSeeds(seed, sz.seeds)
		t0 := time.Now()
		one := runCampaigns(specs, seeds, 1, nil)
		seq := time.Since(t0)
		procs := parallelProcs()
		prev := runtime.GOMAXPROCS(procs)
		t0 = time.Now()
		many := runCampaigns(specs, seeds, procs, nil)
		parWall := time.Since(t0)
		runtime.GOMAXPROCS(prev)
		m["par.speedup_x"] = seq.Seconds() / parWall.Seconds()
		var problems []string
		if digest(one) != digest(many) {
			problems = append(problems, fmt.Sprintf("par.ForEach on %d workers changed the campaign's reports", procs))
		}
		// Per-scenario host cost, from the traced repetition's spans.
		byName := map[string][]float64{}
		for _, s := range rec.spans {
			if s.layer == "scenario" {
				byName[s.name] = append(byName[s.name], float64((s.hostEnd-s.hostStart).Microseconds())/1e3)
			}
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rec.count("end", "scenario.host_ms."+n, median(byName[n]))
		}
		return problems, nil
	}
}
