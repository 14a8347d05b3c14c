package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite every golden from this build's output (runs the slow reports too)")

// goldens are the CLI's contract: every report here is a pure function of
// the model, so stdout is compared byte for byte with a committed file — one
// under testdata/, or, named from the repository root, the golden committed
// beside the campaign it pins. The slow ones are cmp'd by CI's bench-smoke
// job against the same files; here they only run under -update, so one
// command regenerates them all:
//
//	go test ./cmd/fmbench -run TestGoldenReports -update
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

// TestPerfReportNamesItsPR: the trajectory file's name is the only place a
// PR number lives — the report reads it from BENCH_PR<n>.json — and a report
// gates cleanly against itself through the real flag path.
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
	if status := run([]string{"-gate", path, "-gatenew", path}, &out, &errs); status != 0 {
		t.Errorf("report does not gate against itself: exit %d: %s", status, errs.String())
	}
}

// TestSvcCaptureReplaysIdentically: a trace captured through the real flag
// path replays, through the real flag path, to the report its live run
// printed.
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
}

// TestUsageErrors: a command line that asks for two runs, or half of one,
// is refused before anything runs — exit 2, the reason on stderr, nothing on
// stdout.
func TestUsageErrors(t *testing.T) {
	tmp := t.TempDir()
	for _, args := range [][]string{
		{"-gate", "base.json"},
		{"-scenario", "../../campaigns/smoke/05-baseline-clean.json", "-campaign", "../../campaigns/smoke"},
		{"-svccapture", filepath.Join(tmp, "a.jsonl"), "-svcreplay", filepath.Join(tmp, "b.jsonl")},
	} {
		var out, errs bytes.Buffer
		if status := run(args, &out, &errs); status != 2 || out.Len() != 0 || !strings.Contains(errs.String(), "fmbench: ") {
			t.Errorf("fmbench %s: exit %d, stdout %q, stderr %q; want usage error 2",
				strings.Join(args, " "), status, out.String(), errs.String())
		}
	}
}
