// fmbench regenerates the paper's evaluation: every figure and table of
// "Efficient Layering for High Speed Communication: Fast Messages 2.x"
// (Lauria, Pakin, Chien — HPDC 1998), plus the ablation sweeps this
// reproduction adds.
//
// `fmbench -h` lists the flags (the registry below is where they come from)
// and README's "Running things" the usual command lines.
//
// Every report prints on stdout what the model computes, a pure function of
// it, held byte for byte to a committed golden (main_test.go's goldens;
// -update rewrites them when the model moves on purpose). -perf, the
// allreduce scale ladder, also prints what each row cost the host, on
// stderr; what a run costs on the host otherwise is ./benchmark's.
//
// A report is one row of registry, the table the flags are registered from,
// and one row of the goldens table or of heldElsewhere; each flag selects one
// report. A command line that asks for a run of its own with anything else,
// or gives a report a value it cannot take (a figure the paper lacks, a rank
// count no cluster has), is refused before anything runs: exit 2, the reason
// on stderr, nothing on stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/flowctl"
	"repro/internal/mpifm"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/svcload"
	"repro/internal/xport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is one row of the CLI. The flags are registered from the table and
// run loops over it, so a new report is a new row — and a row of
// main_test.go's golden table, which TestEveryReportIsPinned insists on.
type report struct {
	sel   *flag.Flag      // the flag that selects it; nil for a section only -all prints
	valid func() error    // nil, or whether the flag's value is one the report can take
	inAll bool            // part of -all, in table order
	alone bool            // a run of its own (one JSON document, one verdict): a usage error with any other
	write func(c cli) int // prints it; returns the exit status
}

// cli is what a report writes to, and whether -all asked for it.
type cli struct {
	w, stderr io.Writer
	all       bool
}

var figures = []func(io.Writer){
	bench.WriteFigure1, bench.WriteFigure2, bench.WriteFigure3,
	bench.WriteFigure4, bench.WriteFigure5, bench.WriteFigure6,
}

// registry registers every flag but -all on fs and returns the table for one
// command line: each value flag lands in a variable its row's writer closes
// over. Table order is output order, and -all is the inAll rows: tables, six
// figures, headline, ablation, collectives, matrix, topo, mixed.
func registry(fs *flag.FlagSet) []report {
	var (
		fig, perfRanks                           int
		scenPath, campDir, svcCapture, svcReplay string
	)
	on := func(name, usage string) *flag.Flag { fs.Bool(name, false, usage); return fs.Lookup(name) }
	num := func(p *int, name, usage string) *flag.Flag { fs.IntVar(p, name, 0, usage); return fs.Lookup(name) }
	str := func(p *string, name, usage string) *flag.Flag {
		fs.StringVar(p, name, "", usage)
		return fs.Lookup(name)
	}
	return []report{
		{sel: str(&scenPath, "scenario", "run one chaos scenario file; report JSON to stdout"),
			alone: true, write: func(c cli) int { return runScenario(c, scenPath) }},
		{sel: str(&campDir, "campaign", "run every scenario in a directory under the default campaign seed"),
			alone: true, write: func(c cli) int { return runCampaign(c, campDir) }},
		{sel: str(&svcCapture, "svccapture", "run the canonical capture workload and write its request trace here"),
			alone: true, write: func(c cli) int { return runSvcTrace(c, svcCapture, "") }},
		{sel: str(&svcReplay, "svcreplay", "replay a captured request trace; report JSON to stdout"),
			alone: true, write: func(c cli) int { return runSvcTrace(c, "", svcReplay) }},

		{sel: num(&fig, "fig", "run one figure (1-6)"),
			valid: func() error {
				if fig < 1 || fig > len(figures) {
					return fmt.Errorf("no figure %d", fig)
				}
				return nil
			},
			write: func(c cli) int { figures[fig-1](c.w); return 0 }},
		{sel: on("tables", "print Tables 1 and 2"), inAll: true, write: writeTables},
		{inAll: true, write: writeFigures},
		{sel: on("headline", "print the headline paper-vs-measured summary"), inAll: true,
			write: func(c cli) int { bench.WriteHeadline(c.w); return 0 }},
		{sel: on("ablation", "run the design-choice ablations"), inAll: true,
			write: func(c cli) int { runAblations(c.w); return 0 }},
		{sel: on("collectives", "run the MPI collective scaling sweeps"), inAll: true,
			write: func(c cli) int { runCollectives(c.w); return 0 }},
		{sel: on("matrix", "run the upper-layer x binding layering-efficiency matrix"), inAll: true,
			write: func(c cli) int { bench.WriteLayeringMatrix(c.w, []int{256, 2048, 16384}, 300); return 0 }},
		{sel: on("topo", "run the fabric-zoo contention and scaling report"), inAll: true,
			write: func(c cli) int { bench.WriteFabricReport(c.w, bench.DefaultFabricReportConfig()); return 0 }},
		{sel: on("mixed", "run the mixed-workload co-residency suite (shared endpoints)"), inAll: true,
			write: func(c cli) int {
				if c.all {
					fmt.Fprintln(c.w)
				}
				bench.WriteMixedReport(c.w, xport.GenFM2.Machine(), bench.DefaultMixedConfig())
				return 0
			}},
		{sel: num(&perfRanks, "perf", "run the allreduce scale ladder up to N ranks (virtual time, events, digest; host cost on stderr): 1024 is the full ladder at 64-1024, and N above it, e.g. 4096, adds one fat-tree row at N"),
			valid: func() error {
				if perfRanks < 2 || perfRanks > flowctl.MaxNodes {
					return fmt.Errorf("-perf %d: a rank count is 2..%d", perfRanks, flowctl.MaxNodes)
				}
				return nil
			},
			write: func(c cli) int { bench.WritePerfReport(c.w, c.stderr, perfConfig(perfRanks)); return 0 }},
		{sel: on("svc", "run the service-workload suite (RPC tail latency over both FM generations)"),
			write: func(c cli) int {
				if err := bench.WriteSvcReport(c.w); err != nil {
					return failf(c.stderr, 1, "svc report: %v", err)
				}
				return 0
			}},
	}
}

func writeTables(c cli) int {
	bench.WriteTable1(c.w)
	fmt.Fprintln(c.w)
	bench.WriteTable2(c.w)
	fmt.Fprintln(c.w)
	return 0
}

// writeFigures is the section only -all prints: all six, where -fig is one.
func writeFigures(c cli) int {
	for _, f := range figures {
		f(c.w)
		fmt.Fprintln(c.w)
	}
	return 0
}

// run is the whole CLI as a function of its arguments and streams, so the
// golden tests drive the real flag path in-process. The return value is the
// exit status: 1 for a failed report or campaign, 2 for bad usage.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("fmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "run every figure, table, and summary")
	reports := registry(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	given := func(f *flag.Flag) bool { return f.Value.String() != f.DefValue }

	// What the command line selects, and the flags that did the selecting.
	var selected []report
	var asked []string
	lone := false
	if *all {
		asked = append(asked, "-all")
	}
	for _, r := range reports {
		picked := r.sel != nil && given(r.sel)
		if picked {
			asked, lone = append(asked, "-"+r.sel.Name), lone || r.alone
			if r.valid != nil {
				if err := r.valid(); err != nil {
					return failf(stderr, 2, "%v", err)
				}
			}
		}
		if picked || *all && r.inAll {
			selected = append(selected, r)
		}
	}
	if lone && len(asked) > 1 {
		return failf(stderr, 2, "%s are separate runs: give one", strings.Join(asked, " and "))
	}
	if len(selected) == 0 {
		fs.Usage()
		return 2
	}
	for _, r := range selected {
		if status := r.write(cli{w, stderr, *all}); status != 0 {
			return status
		}
	}
	return 0
}

// perfConfig is the -perf ladder capped at ranks. A cap above the ladder's
// top adds it as one more fat-tree row.
func perfConfig(ranks int) bench.PerfConfig {
	cfg := bench.DefaultPerfConfig()
	ft := cfg.CollectiveRanks
	cfg.CollectiveRanks = capRanks(ft, ranks)
	cfg.TorusRanks = capRanks(cfg.TorusRanks, ranks)
	if ranks > ft[len(ft)-1] {
		cfg.CollectiveRanks = append(cfg.CollectiveRanks, ranks)
	}
	return cfg
}

// failf reports why the command is exiting nonzero and returns the status.
func failf(stderr io.Writer, status int, format string, a ...any) int {
	fmt.Fprintf(stderr, "fmbench: "+format+"\n", a...)
	return status
}

// runSvcTrace is the capture/replay entry: -svccapture runs the canonical
// workload and writes its request trace; -svcreplay rebuilds the run from a
// trace file. Both print the run's report JSON to stdout, so
// capture-then-replay lets cmp(1) prove the identity.
func runSvcTrace(c cli, capturePath, replayPath string) int {
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
	if err == nil {
		err = bench.WriteJSON(c.w, res)
	}
	if err != nil {
		return failf(c.stderr, 1, "svc trace: %v", err)
	}
	return 0
}

// runScenario and runCampaign drive the chaos layer at
// scenario.DefaultSeed: one scenario file, or a whole campaign directory
// sharded one replica per CPU (the report's bytes are the same at any worker
// count). The exit status is the CI contract — nonzero on any failed
// assertion, crash, or diagnosed hang that wasn't asserted for.
func runScenario(c cli, path string) int {
	rep, err := scenario.RunFile(path, scenario.DefaultSeed)
	if err != nil {
		return failf(c.stderr, 2, "%v", err)
	}
	c.w.Write(rep.Marshal())
	if !rep.Passed {
		return 1
	}
	return 0
}

func runCampaign(c cli, dir string) int {
	res, err := scenario.RunCampaignN(dir, scenario.DefaultSeed, 0)
	if err != nil {
		return failf(c.stderr, 2, "%v", err)
	}
	c.w.Write(res.Marshal())
	if !res.Passed {
		// One line per failure, so a CI log explains itself: the first
		// failure, and for a hang the report's first line (its cycle).
		for _, rep := range res.Scenarios {
			if !rep.Passed {
				why := rep.Failures[0]
				if rep.Hang != nil && len(rep.Hang.Lines) > 0 {
					why += "; hang: " + rep.Hang.Lines[0]
				}
				failf(c.stderr, 1, "%s: %s: %s", rep.Scenario, rep.Outcome, why)
			}
		}
		return failf(c.stderr, 1, "campaign failed: %d of %d scenarios", res.Failed, res.Total)
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
