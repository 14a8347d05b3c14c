package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite every golden from this build's output (runs the slow reports too)")

// goldens are the CLI's contract: every report here is a pure function of
// the model, so stdout is compared byte for byte with a committed file — one
// under testdata/, or, named from the repository root, the golden committed
// beside the campaign it pins. The slow ones are cmp'd by CI's bench-smoke
// job against the same files; here they only run under -update, so one
// command regenerates them all:
//
//	go test ./cmd/fmbench -run 'TestGoldenReports|TestSvcCapture' -update
var goldens = []struct {
	file string
	slow bool
	args []string
}{
	{file: "summary.golden", args: []string{"-tables", "-headline", "-ablation", "-mixed"}},
	{file: "svc.golden", args: []string{"-svc"}},
	{file: "campaigns/smoke/golden.json", args: []string{"-campaign", "../../campaigns/smoke"}},
	{file: "campaigns/svc/golden.json", args: []string{"-campaign", "../../campaigns/svc"}},
	{file: "all.golden", slow: true, args: []string{"-all"}},
	{file: "topo16.golden", slow: true, args: []string{"-topo", "-toporanks", "16"}},
}

func TestGoldenReports(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			if g.slow && !*update {
				t.Skip("slow report: CI's bench-smoke job compares it; -update regenerates it")
			}
			var out, errs bytes.Buffer
			if status := run(g.args, &out, &errs); status != 0 {
				t.Fatalf("fmbench %s: exit %d: %s", strings.Join(g.args, " "), status, errs.String())
			}
			path := filepath.Join("testdata", g.file)
			if strings.Contains(g.file, "/") {
				path = filepath.Join("..", "..", g.file)
			}
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fmbench %s moved from %s; if the model changed on purpose, rerun with -update and say why.\ngot:\n%s",
					strings.Join(g.args, " "), path, out.String())
			}
		})
	}
}

// heldElsewhere is the explicit list of reports no quick golden row selects:
// each names the slow golden (cmp'd by CI's bench-smoke) or the test that
// holds its output instead.
var heldElsewhere = map[string]string{
	"fig":         "all.golden", // the same six writers, in order
	"collectives": "all.golden",
	"matrix":      "all.golden",
	"topo":        "topo16.golden",
	"perf":        "TestPerfReportNamesItsPR", // wall clock: no golden can hold it
	"svccapture":  "TestSvcCaptureReplaysIdentically",
	"svcreplay":   "TestSvcCaptureReplaysIdentically",
	"scenario":    "TestScenarioFlagPrintsTheCampaignEntry",
}

// TestEveryReportIsPinned ranges over the CLI's registry, so a report cannot
// be added unpinned: every row is selected by a quick row of the goldens
// table, or is on heldElsewhere — and a slow golden named there is a row of
// the table too.
func TestEveryReportIsPinned(t *testing.T) {
	quick, slow := map[string]bool{}, map[string]bool{}
	for _, g := range goldens {
		slow[g.file] = g.slow
		for _, a := range g.args {
			if !g.slow {
				quick[strings.TrimPrefix(a, "-")] = true
			}
		}
	}
	for _, r := range registry(flag.NewFlagSet("fmbench", flag.ContinueOnError)) {
		if r.sel == nil {
			continue // a section of -all, which all.golden holds
		}
		held, listed := heldElsewhere[r.sel.Name]
		switch {
		case quick[r.sel.Name] == listed:
			t.Errorf("-%s: quick golden row %v, heldElsewhere %v; want exactly one", r.sel.Name, quick[r.sel.Name], listed)
		case strings.HasSuffix(held, ".golden") && !slow[held]:
			t.Errorf("-%s: %s is not a slow row of the goldens table", r.sel.Name, held)
		}
	}
}

// TestScenarioFlagPrintsTheCampaignEntry: -scenario on one file of a
// committed campaign prints the report the campaign's golden holds for it.
func TestScenarioFlagPrintsTheCampaignEntry(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns", "smoke")
	golden, err := os.ReadFile(filepath.Join(dir, scenario.GoldenName))
	if err != nil {
		t.Fatal(err)
	}
	var c scenario.Campaign
	if err := json.Unmarshal(golden, &c); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if status := run([]string{"-scenario", filepath.Join(dir, "05-baseline-clean.json")}, &out, &errs); status != 0 {
		t.Fatalf("exit %d: %s", status, errs.String())
	}
	for _, rep := range c.Scenarios {
		if bytes.Equal(rep.Marshal(), out.Bytes()) {
			return
		}
	}
	t.Errorf("no entry of %s/%s matches:\n%s", dir, scenario.GoldenName, out.String())
}

// TestFailedCampaignSaysWhy: a failed campaign names each failed scenario on
// stderr with its outcome and first failure, and for a hang the first line
// of its report: here the FM 1.x credit cycle of a 16-node ring.
func TestFailedCampaignSaysWhy(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]string{
		"05-clean.json": `{"name": "clean", "nodes": 4, "traffic": {"pattern": "ring", "messages": 2, "size": 64}}`,
		"10-ring.json":  `{"name": "fm1-ring16", "nodes": 16, "fm": 1, "traffic": {"pattern": "ring", "messages": 20, "size": 4096}}`,
	}
	for name, spec := range specs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errs bytes.Buffer
	if status := run([]string{"-campaign", dir}, &out, &errs); status != 1 {
		t.Fatalf("exit %d, want 1", status)
	}
	want := `fmbench: fm1-ring16: watchdog: outcome "watchdog", want "complete"; hang: cycle n0 → n1 → n2 → n3 → n4 → n5 → n6 → n7 → n8 → n9 → n10 → n11 → n12 → n13 → n14 → n15 → n0
fmbench: campaign failed: 1 of 2 scenarios
`
	if errs.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", errs.String(), want)
	}
}

// TestPerfReportNamesItsPR: the trajectory file's name is the only place a
// PR number lives — the report reads it from BENCH_PR<n>.json — a report
// written through the real flag path gates cleanly against itself, and its
// 64-rank fat-tree row computes what the newest committed report says.
func TestPerfReportNamesItsPR(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_PR42.json")
	var out, errs bytes.Buffer
	if status := run([]string{"-perf", "-perfranks", "64", "-json", path}, &out, &errs); status != 0 {
		t.Fatalf("exit %d: %s", status, errs.String())
	}
	rep, err := bench.LoadPerfReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PR != 42 {
		t.Errorf("report pr = %d, want 42 from the file name", rep.PR)
	}
	if err := bench.GateTrajectory(path, path); err != nil {
		t.Errorf("report does not gate against itself: %v", err)
	}
	committed, err := bench.CommittedReports(filepath.Join("..", ".."))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed BENCH_PR*.json (%v)", err)
	}
	newest, err := bench.LoadPerfReport(committed[len(committed)-1])
	if err != nil {
		t.Fatal(err)
	}
	live := rep.Entries[0]
	for _, e := range newest.Entries {
		if e.Name == live.Name && e.Fabric == live.Fabric && e.Ranks == live.Ranks && e.SizeB == live.SizeB {
			if e.VirtualUS != live.VirtualUS || e.Digest != "" && e.Digest != live.Digest {
				t.Errorf("%s %s %d ranks: live run computed %v us, digest %s; %s holds %v us, digest %q",
					live.Name, live.Fabric, live.Ranks, live.VirtualUS, live.Digest,
					committed[len(committed)-1], e.VirtualUS, e.Digest)
			}
			return
		}
	}
	t.Errorf("%s has no %s %s %d-rank row", committed[len(committed)-1], live.Name, live.Fabric, live.Ranks)
}

// TestSvcCaptureReplaysIdentically: a trace captured through the real flag
// path replays, through the real flag path, to the report its live run
// printed; the report and the trace are pinned under testdata/ like the
// goldens, and -update rewrites them.
func TestSvcCaptureReplaysIdentically(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var live, replayed, errs bytes.Buffer
	if status := run([]string{"-svccapture", trace}, &live, &errs); status != 0 {
		t.Fatalf("capture: exit %d: %s", status, errs.String())
	}
	if status := run([]string{"-svcreplay", trace}, &replayed, &errs); status != 0 {
		t.Fatalf("replay: exit %d: %s", status, errs.String())
	}
	if live.Len() == 0 || !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Errorf("replayed report differs from the live run's\nlive:\n%s\nreplayed:\n%s", live.String(), replayed.String())
	}
	captured, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		file string
		got  []byte
	}{
		{"svccapture.golden", live.Bytes()},
		{"svccapture.trace.jsonl", captured},
	} {
		path := filepath.Join("testdata", pin.file)
		if *update {
			if err := os.WriteFile(path, pin.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if want, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(pin.got, want) {
			t.Errorf("fmbench -svccapture moved from %s; if the model changed on purpose, rerun with -update and say why.\ngot:\n%s", path, pin.got)
		}
	}
}

// TestSvcReplayRefusesBadTrace: a trace is outside input. One that could
// crash its replay, or names a machine that cannot be built, ends the run
// with exit 1 and the reason on stderr, nothing on stdout.
func TestSvcReplayRefusesBadTrace(t *testing.T) {
	const header = `{"format":"fmnet-svctrace/1","fm":"fm2","mode":"open","service_ns":2000,"nodes":`
	const rec = `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1}` + "\n"
	for name, trace := range map[string]string{
		"300 nodes on one crossbar": header + `300}` + "\n" + rec,
		"payload size near MaxInt":  header + `2}` + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1,"req_b":9223372036854775800}` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errs bytes.Buffer
		if status := run([]string{"-svcreplay", path}, &out, &errs); status != 1 || out.Len() != 0 ||
			!strings.Contains(errs.String(), "svc trace: ") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 naming the trace", name, status, out.String(), errs.String())
		}
	}
}

// TestUsageErrors: a command line that asks for two runs, a modifier of a
// report it does not ask for, or a rank count no cluster has, is refused
// before anything runs — exit 2, the reason on stderr, nothing on stdout.
func TestUsageErrors(t *testing.T) {
	tmp := t.TempDir()
	for _, args := range [][]string{
		{"-scenario", "../../campaigns/smoke/05-baseline-clean.json", "-campaign", "../../campaigns/smoke"},
		{"-svccapture", filepath.Join(tmp, "a.jsonl"), "-svcreplay", filepath.Join(tmp, "b.jsonl")},
		// A modifier without the report it modifies used to be ignored.
		{"-tables", "-toporanks", "16"},
		{"-tables", "-perfranks", "64"},
		{"-tables", "-perfbig", "4096"},
		{"-tables", "-json", filepath.Join(tmp, "BENCH_PR1.json")},
		{"-tables", "-campaignseed", "7"},
		// A rank count a cluster cannot have used to panic mid-report or run
		// the whole default sweep.
		{"-topo", "-toporanks", "1"},
		{"-topo", "-toporanks", "-5"},
		{"-perf", "-perfranks", "1"},
		{"-perf", "-perfranks", "-3"},
		{"-perf", "-perfbig", "1"},
		{"-perf", "-perfbig", "70000"},
		{"-all", "-toporanks", "1"},
	} {
		var out, errs bytes.Buffer
		if status := run(args, &out, &errs); status != 2 || out.Len() != 0 || !strings.Contains(errs.String(), "fmbench: ") {
			t.Errorf("fmbench %s: exit %d, stdout %q, stderr %q; want usage error 2",
				strings.Join(args, " "), status, out.String(), errs.String())
		}
	}
}
