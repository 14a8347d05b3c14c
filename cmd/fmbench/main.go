// fmbench regenerates the paper's evaluation: every figure and table of
// "Efficient Layering for High Speed Communication: Fast Messages 2.x"
// (Lauria, Pakin, Chien — HPDC 1998), plus the ablation sweeps this
// reproduction adds.
//
// Usage:
//
//	fmbench -all            # everything
//	fmbench -fig 5          # one figure (1..6)
//	fmbench -tables         # Tables 1 and 2 (API mapping)
//	fmbench -headline       # the summary numbers for EXPERIMENTS.md
//	fmbench -ablation       # design-choice ablations
//	fmbench -collectives    # MPI collective scaling over ranks, sizes, algorithms
//	fmbench -matrix         # layering efficiency for every upper layer x FM binding
//	fmbench -topo           # fabric zoo: bisection regimes, contention matrix, scaling
//	fmbench -topo -toporanks 16  # trim the fabric sweep's largest rank count
//	fmbench -mixed          # co-residency: MPI + sockets + GA sharing each node's endpoint
//	fmbench -scenario f.json            # run one chaos scenario, report to stdout
//	fmbench -campaign campaigns/smoke   # run a scenario directory under one seed
//	fmbench -svc                        # RPC service-workload tail-latency sweep
//	fmbench -svccapture t.jsonl         # capture a request trace (report to stdout)
//	fmbench -svcreplay t.jsonl          # replay it bit-identically
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/mpifm"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xport"
)

func main() {
	var (
		all         = flag.Bool("all", false, "run every figure, table, and summary")
		fig         = flag.Int("fig", 0, "run one figure (1-6)")
		tables      = flag.Bool("tables", false, "print Tables 1 and 2")
		headline    = flag.Bool("headline", false, "print the headline paper-vs-measured summary")
		ablation    = flag.Bool("ablation", false, "run the design-choice ablations")
		collectives = flag.Bool("collectives", false, "run the MPI collective scaling sweeps")
		matrix      = flag.Bool("matrix", false, "run the upper-layer x binding layering-efficiency matrix")
		topo        = flag.Bool("topo", false, "run the fabric-zoo contention and scaling report")
		topoRanks   = flag.Int("toporanks", 0, "cap the fabric sweep's rank counts (0 = default sweep)")
		mixed       = flag.Bool("mixed", false, "run the mixed-workload co-residency suite (shared endpoints)")
		perf        = flag.Bool("perf", false, "run the engine wall-clock suite (events/sec, allocs/op, 512/1024-rank scaling)")
		perfRanks   = flag.Int("perfranks", 0, "cap the perf suite's rank counts (0 = full sweep incl. 1024)")
		perfPar     = flag.Int("perfpar", 0, "perf suite: rerun fat-tree points on the parallel engine with this many LPs (0 = sequential only)")
		perfBig     = flag.Int("perfbig", 0, "perf suite: add one fat-tree allreduce row at this rank count (e.g. 4096)")
		jsonPath    = flag.String("json", "BENCH_PR15.json", "perf suite: machine-readable output path (empty = don't write)")
		svc         = flag.Bool("svc", false, "run the service-workload suite (RPC tail latency over both FM generations)")
		svcJSON     = flag.String("svcjson", "", "svc suite: machine-readable output path (empty = don't write)")
		svcRanks    = flag.Int("svcranks", 0, "cap the svc sweep's fleet sizes (0 = default sweep)")
		svcReq      = flag.Int("svcreq", 0, "svc suite: per-client request count (0 = default)")
		svcSeed     = flag.Int64("svcseed", 0, "svc suite: workload seed (0 = default)")
		svcCapture  = flag.String("svccapture", "", "run the canonical capture workload and write its request trace here")
		svcReplay   = flag.String("svcreplay", "", "replay a captured request trace; report JSON to stdout")
		scenPath    = flag.String("scenario", "", "run one chaos scenario file; report JSON to stdout")
		campDir     = flag.String("campaign", "", "run every scenario in a directory under one campaign seed")
		campSeed    = flag.Int64("campaignseed", scenario.DefaultSeed, "campaign seed (also scopes -scenario)")
		campOut     = flag.String("campaignout", "", "write the campaign report JSON here instead of stdout")
		campWorkers = flag.Int("campaignpar", 1, "campaign: scenario replicas to run concurrently (0 = one per CPU); report bytes are identical at any worker count")
		gateBase    = flag.String("gate", "", "trajectory gate: compare -gatenew against this baseline BENCH_*.json and exit nonzero on regression")
		gateNew     = flag.String("gatenew", "BENCH_PR15.json", "trajectory gate: the new report to hold to the baseline")
		gateTol     = flag.Float64("gatetol", bench.GateTolerancePct, "trajectory gate: regression tolerance in percent")
	)
	flag.Parse()
	w := os.Stdout

	if *gateBase != "" {
		if err := bench.GateTrajectory(*gateBase, *gateNew, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "trajectory gate: %s holds against %s (tol %.0f%%)\n", *gateNew, *gateBase, *gateTol)
		return
	}

	if *scenPath != "" || *campDir != "" {
		runScenarios(*scenPath, *campDir, *campSeed, *campOut, *campWorkers)
		return
	}

	if *svcCapture != "" || *svcReplay != "" {
		runSvcTrace(*svcCapture, *svcReplay, *svcReq, *svcSeed)
		return
	}

	if !*all && *fig == 0 && !*tables && !*headline && !*ablation && !*collectives && !*matrix && !*topo && !*mixed && !*perf && !*svc {
		flag.Usage()
		os.Exit(2)
	}

	figures := map[int]func(){
		1: func() { bench.WriteFigure1(w) },
		2: func() { bench.WriteFigure2(w) },
		3: func() { bench.WriteFigure3(w) },
		4: func() { bench.WriteFigure4(w) },
		5: func() { bench.WriteFigure5(w) },
		6: func() { bench.WriteFigure6(w) },
	}

	if *fig != 0 {
		f, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "fmbench: no figure %d\n", *fig)
			os.Exit(2)
		}
		f()
	}
	if *all || *tables {
		bench.WriteTable1(w)
		fmt.Fprintln(w)
		bench.WriteTable2(w)
		fmt.Fprintln(w)
	}
	if *all {
		for i := 1; i <= 6; i++ {
			figures[i]()
			fmt.Fprintln(w)
		}
	}
	if *all || *headline {
		fmt.Fprintln(w, "Headline reproduction summary (paper targets in parentheses):")
		fmt.Fprintln(w, "  paper: FM1 17.6 MB/s, N1/2 54B, 14us | MPI-FM1 <=35% | FM2 77 MB/s, <256B, 11us | MPI-FM2 70 MB/s, 70->90%, 17us")
		for _, r := range bench.Headline() {
			bench.WriteResult(w, r)
		}
		fmt.Fprintln(w)
	}
	if *all || *ablation {
		runAblations(w)
	}
	if *all || *collectives {
		runCollectives(w)
	}
	if *all || *matrix {
		bench.WriteLayeringMatrix(w, []int{256, 2048, 16384}, 300)
	}
	if *all || *topo {
		cfg := bench.DefaultFabricReportConfig()
		if *topoRanks > 0 {
			cfg.Ranks = capRanks(cfg.Ranks, *topoRanks)
			// Cap the bisection and matrix platforms too — they dominate
			// the report's cost. Node counts must stay even for the cut
			// pattern; floor at 8 so every fabric still multi-stages.
			cap := *topoRanks &^ 1
			if cap < 8 {
				cap = 8
			}
			if cfg.BisectNodes > cap {
				cfg.BisectNodes = cap
			}
			if cfg.MatrixNodes > cap {
				cfg.MatrixNodes = cap
			}
		}
		bench.WriteFabricReport(w, cfg)
	}
	if *all || *mixed {
		if *all {
			fmt.Fprintln(w)
		}
		bench.WriteMixedReport(w, xport.GenFM2, bench.DefaultMixedConfig())
	}
	if *perf {
		cfg := bench.DefaultPerfConfig()
		if *perfRanks > 0 {
			cfg.CollectiveRanks = capRanks(cfg.CollectiveRanks, *perfRanks)
			cfg.TorusRanks = capRanks(cfg.TorusRanks, *perfRanks)
		}
		cfg.ParallelLPs = *perfPar
		cfg.BigRanks = *perfBig
		if err := bench.WritePerfReport(w, cfg, 15, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: perf report: %v\n", err)
			os.Exit(1)
		}
	}
	if *svc {
		cfg := bench.DefaultSvcConfig()
		if *svcRanks > 0 {
			cfg.Ranks = capRanks(cfg.Ranks, *svcRanks)
		}
		if *svcReq > 0 {
			cfg.Requests = *svcReq
		}
		if *svcSeed != 0 {
			cfg.Seed = *svcSeed
		}
		if err := bench.WriteSvcReport(w, cfg, *svcJSON); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: svc report: %v\n", err)
			os.Exit(1)
		}
	}
}

// runSvcTrace is the capture/replay entry: -svccapture runs the canonical
// workload and writes its request trace; -svcreplay rebuilds the run from a
// trace file. Both print the run's report JSON to stdout, so
// capture-then-replay lets cmp(1) prove the identity.
func runSvcTrace(capturePath, replayPath string, requests int, seed int64) {
	var res bench.SvcResult
	var err error
	switch {
	case capturePath != "":
		if requests == 0 {
			requests = 40
		}
		if seed == 0 {
			seed = 1998
		}
		var f *os.File
		if f, err = os.Create(capturePath); err == nil {
			res, err = bench.SvcCapture(requests, seed, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	default:
		var f *os.File
		if f, err = os.Open(replayPath); err == nil {
			res, err = bench.SvcReplay(f)
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: svc trace: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: svc trace: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(data, '\n'))
}

// runScenarios drives the chaos layer: one scenario file or a whole
// campaign directory. Exit status is the CI contract — nonzero on any
// failed assertion, crash, or diagnosed hang that wasn't asserted for.
func runScenarios(scenPath, campDir string, seed int64, outPath string, workers int) {
	if scenPath != "" {
		rep, err := scenario.RunFile(scenPath, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(rep.Marshal())
		if !rep.Passed {
			os.Exit(1)
		}
		return
	}
	c, err := scenario.RunCampaignN(campDir, seed, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
		os.Exit(2)
	}
	out := c.Marshal()
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			os.Exit(2)
		}
		for _, r := range c.Scenarios {
			status := "pass"
			if !r.Passed {
				status = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "  %-20s %-9s %s\n", r.Scenario, r.Outcome, status)
		}
	} else {
		os.Stdout.Write(out)
	}
	if !c.Passed {
		fmt.Fprintf(os.Stderr, "fmbench: campaign failed: %d of %d scenarios\n", c.Failed, c.Total)
		os.Exit(1)
	}
}

// capRanks trims a rank sweep to counts <= max, keeping at least one point.
func capRanks(ranks []int, max int) []int {
	var out []int
	for _, r := range ranks {
		if r <= max {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

func runCollectives(w *os.File) {
	bench.WriteCollectiveScaling(w, bench.DefaultCollectiveScalingConfig())
	fmt.Fprintln(w)
	bench.WriteCollectiveSizeSweep(w, 8, []int{64, 512, 2048, 8192})
	fmt.Fprintln(w)
	bench.WriteCollectiveAlgos(w, 16, 2048)
}

func runAblations(w *os.File) {
	fmt.Fprintln(w, "Ablations (MPI-FM 2.0 streaming at 2048B unless noted):")
	const size, msgs = 2048, 400
	full := bench.MPI2AblationBandwidth(mpifm.Options{}, size, msgs)
	noGather := bench.MPI2AblationBandwidth(mpifm.Options{NoGather: true}, size, msgs)
	fmt.Fprintf(w, "  full FM 2.x services      %7.2f MB/s\n", full)
	fmt.Fprintf(w, "  gather off (assembly copy) %6.2f MB/s  (%.0f%%)\n", noGather, 100*noGather/full)
	// Pacing is priced with a busy receiver (40us of compute per message):
	// with it off, the ring backlog floods the unexpected pool — a staging
	// copy per message that pacing keeps off the host entirely.
	lag := 40 * sim.Microsecond
	_, pacedStats := bench.MPI2AblationOverrun(mpifm.Options{}, size, msgs, lag)
	_, unpacedStats := bench.MPI2AblationOverrun(mpifm.Options{Unpaced: true}, size, msgs, lag)
	fmt.Fprintf(w, "  receiver pacing (busy receiver): paced %d/%d direct, unpaced %d/%d direct (%d pool copies)\n",
		pacedStats.Direct, msgs, unpacedStats.Direct, msgs, unpacedStats.Unexpected)

	fmt.Fprintln(w, "  packet-size sweep (FM 2.x bandwidth, MB/s):")
	mtus := []int{144, 272, 552, 1040, 1552}
	sweep := bench.PacketSizeSweep(mtus, []int{64, 512, 2048})
	fmt.Fprintf(w, "    %10s  %8s  %8s  %8s\n", "packet", "64B", "512B", "2048B")
	for _, mtu := range mtus {
		c := sweep[mtu]
		fmt.Fprintf(w, "    %10d  %8.2f  %8.2f  %8.2f\n", mtu, c.At(64), c.At(512), c.At(2048))
	}

	fmt.Fprintln(w, "  credit-window sweep (FM 2.x at 2048B, MB/s):")
	cw := bench.CreditWindowSweep([]int{1, 2, 4, 8, 16, 32}, 2048)
	for _, pt := range cw {
		fmt.Fprintf(w, "    window %3d  %8.2f\n", pt.Size, pt.MBps)
	}
}
