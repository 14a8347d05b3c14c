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
//	fmbench -campaign campaigns/smoke   # run a scenario directory under one seed, report to stdout
//	fmbench -svc                        # RPC service-workload tail-latency sweep
//	fmbench -svccapture t.jsonl         # capture a request trace (report to stdout)
//	fmbench -svcreplay t.jsonl          # replay it bit-identically
//	fmbench -perf                       # wall clock: the allreduce scale ladder (-perfranks, -perfbig, -perfpar, -json)
//	fmbench -gate a.json -gatenew b.json  # hold perf report b to report a
//
// Everything but -perf prints virtual time, a pure function of the model,
// and is held byte for byte to a committed golden (main_test.go). -perf is
// the one wall-clock report, and it asks one question — how far the rank
// axis goes; what a run costs on the host otherwise is ./benchmark's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/mpifm"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/svcload"
	"repro/internal/xport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI as a function of its arguments and streams, so the
// golden tests drive the real flag path in-process. The return value is the
// exit status: 1 for a failed report, gate or campaign, 2 for bad usage.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("fmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all         = fs.Bool("all", false, "run every figure, table, and summary")
		fig         = fs.Int("fig", 0, "run one figure (1-6)")
		tables      = fs.Bool("tables", false, "print Tables 1 and 2")
		headline    = fs.Bool("headline", false, "print the headline paper-vs-measured summary")
		ablation    = fs.Bool("ablation", false, "run the design-choice ablations")
		collectives = fs.Bool("collectives", false, "run the MPI collective scaling sweeps")
		matrix      = fs.Bool("matrix", false, "run the upper-layer x binding layering-efficiency matrix")
		topo        = fs.Bool("topo", false, "run the fabric-zoo contention and scaling report")
		topoRanks   = fs.Int("toporanks", 0, "cap the fabric sweep's rank counts (0 = default sweep)")
		mixed       = fs.Bool("mixed", false, "run the mixed-workload co-residency suite (shared endpoints)")
		perf        = fs.Bool("perf", false, "run the engine wall-clock suite (allreduce scale ladder: events/sec, allocs/rank at 64-1024 ranks)")
		perfRanks   = fs.Int("perfranks", 0, "cap the perf suite's rank counts (0 = full sweep incl. 1024)")
		perfPar     = fs.Int("perfpar", 0, "perf suite: rerun fat-tree points on the parallel engine with this many LPs (0 = sequential only)")
		perfBig     = fs.Int("perfbig", 0, "perf suite: add one fat-tree allreduce row at this rank count (e.g. 4096)")
		jsonPath    = fs.String("json", "", "perf suite: machine-readable output path; BENCH_PR<n>.json records n as the report's pr (empty = don't write)")
		svc         = fs.Bool("svc", false, "run the service-workload suite (RPC tail latency over both FM generations)")
		svcCapture  = fs.String("svccapture", "", "run the canonical capture workload and write its request trace here")
		svcReplay   = fs.String("svcreplay", "", "replay a captured request trace; report JSON to stdout")
		scenPath    = fs.String("scenario", "", "run one chaos scenario file; report JSON to stdout")
		campDir     = fs.String("campaign", "", "run every scenario in a directory under one campaign seed")
		campSeed    = fs.Int64("campaignseed", scenario.DefaultSeed, "campaign seed (also scopes -scenario)")
		gateBase    = fs.String("gate", "", "trajectory gate: compare -gatenew against this baseline BENCH_*.json and exit nonzero on regression")
		gateNew     = fs.String("gatenew", "", "trajectory gate: the new report to hold to the baseline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *gateBase != "" {
		if *gateNew == "" {
			return failf(stderr, 2, "-gate needs -gatenew <report>")
		}
		if err := bench.GateTrajectory(*gateBase, *gateNew); err != nil {
			return failf(stderr, 1, "%v", err)
		}
		fmt.Fprintf(w, "trajectory gate: %s holds against %s (tol %.0f%%)\n", *gateNew, *gateBase, bench.GateTolerancePct)
		return 0
	}

	if *scenPath != "" || *campDir != "" {
		if *scenPath != "" && *campDir != "" {
			return failf(stderr, 2, "-scenario and -campaign are separate runs: give one")
		}
		return runScenarios(w, stderr, *scenPath, *campDir, *campSeed)
	}

	if *svcCapture != "" || *svcReplay != "" {
		if *svcCapture != "" && *svcReplay != "" {
			return failf(stderr, 2, "-svccapture and -svcreplay are separate runs: give one")
		}
		if err := runSvcTrace(w, *svcCapture, *svcReplay); err != nil {
			return failf(stderr, 1, "svc trace: %v", err)
		}
		return 0
	}

	if !*all && *fig == 0 && !*tables && !*headline && !*ablation && !*collectives && !*matrix && !*topo && !*mixed && !*perf && !*svc {
		fs.Usage()
		return 2
	}

	figures := []func(io.Writer){
		bench.WriteFigure1, bench.WriteFigure2, bench.WriteFigure3,
		bench.WriteFigure4, bench.WriteFigure5, bench.WriteFigure6,
	}
	if *fig != 0 {
		if *fig < 1 || *fig > len(figures) {
			return failf(stderr, 2, "no figure %d", *fig)
		}
		figures[*fig-1](w)
	}
	if *all || *tables {
		bench.WriteTable1(w)
		fmt.Fprintln(w)
		bench.WriteTable2(w)
		fmt.Fprintln(w)
	}
	if *all {
		for _, f := range figures {
			f(w)
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
		if err := bench.WritePerfReport(w, cfg, *jsonPath); err != nil {
			return failf(stderr, 1, "perf report: %v", err)
		}
	}
	if *svc {
		if err := bench.WriteSvcReport(w); err != nil {
			return failf(stderr, 1, "svc report: %v", err)
		}
	}
	return 0
}

// failf reports why the command is exiting nonzero and returns the status.
func failf(stderr io.Writer, status int, format string, a ...any) int {
	fmt.Fprintf(stderr, "fmbench: "+format+"\n", a...)
	return status
}

// runSvcTrace is the capture/replay entry: -svccapture runs the canonical
// workload and writes its request trace; -svcreplay rebuilds the run from a
// trace file. Both print the run's report JSON to w, so capture-then-replay
// lets cmp(1) prove the identity.
func runSvcTrace(w io.Writer, capturePath, replayPath string) error {
	var res svcload.Result
	var f *os.File
	var err error
	if capturePath != "" {
		if f, err = os.Create(capturePath); err == nil {
			res, err = bench.SvcCapture(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	} else if f, err = os.Open(replayPath); err == nil {
		res, err = bench.SvcReplay(f)
		f.Close()
	}
	if err != nil {
		return err
	}
	return bench.WriteJSON(w, res)
}

// runScenarios drives the chaos layer: one scenario file, or a whole
// campaign directory sharded one replica per CPU (the report's bytes are the
// same at any worker count). The exit status is the CI contract — nonzero on
// any failed assertion, crash, or diagnosed hang that wasn't asserted for.
func runScenarios(w, stderr io.Writer, scenPath, campDir string, seed int64) int {
	if scenPath != "" {
		rep, err := scenario.RunFile(scenPath, seed)
		if err != nil {
			return failf(stderr, 2, "%v", err)
		}
		w.Write(rep.Marshal())
		if !rep.Passed {
			return 1
		}
		return 0
	}
	c, err := scenario.RunCampaignN(campDir, seed, 0)
	if err != nil {
		return failf(stderr, 2, "%v", err)
	}
	w.Write(c.Marshal())
	if !c.Passed {
		return failf(stderr, 1, "campaign failed: %d of %d scenarios", c.Failed, c.Total)
	}
	return 0
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

func runCollectives(w io.Writer) {
	bench.WriteCollectiveScaling(w, bench.DefaultCollectiveScalingConfig())
	fmt.Fprintln(w)
	bench.WriteCollectiveSizeSweep(w, 8, []int{64, 512, 2048, 8192})
	fmt.Fprintln(w)
	bench.WriteCollectiveAlgos(w, 16, 2048)
}

func runAblations(w io.Writer) {
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
