package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperClaims holds the simulation to every row of the paper table. A
// row out of bound fails unless it states a deviation, and a deviation row
// back in bound fails too, so its note goes. With -v it prints the table:
// claim, source, paper, simulated value, ratio, and verdict or deviation.
func TestPaperClaims(t *testing.T) {
	m := Measure()
	for _, c := range Claims {
		v := c.Read(m)
		name := c.System + " " + c.Label
		in := c.Holds(v)
		verdict := "ok"
		switch {
		case c.Deviation == "" && !in:
			verdict = "OUT OF BOUND"
			t.Errorf("%s: simulated %s against the paper's %s (%s)", name, c.Sim(v), c.Paper(), c.Source)
		case c.Deviation != "" && in:
			verdict = "back in bound"
			t.Errorf("%s: simulated %s is within the paper's %s: delete the row's Deviation", name, c.Sim(v), c.Paper())
		case c.Deviation != "":
			verdict = "deviation: " + c.Deviation
		}
		t.Logf("%-32s %-48s paper %-12s sim %-12s ratio %5.3f  %s", name, c.Source, c.Paper(), c.Sim(v), v/c.Value, verdict)
	}
}

// TestREADMENumbersHoldToTheirSources: README's numbers table prints the four
// headline rows from Measure and the allreduce rows from the newest committed
// trajectory report, which its introduction names. Each row is checked at the
// precision README prints, so a number that moves fails here instead of
// leaving README stale.
func TestREADMENumbersHoldToTheirSources(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := CommittedReports(filepath.Join("..", ".."))
	if err != nil || len(paths) == 0 {
		t.Fatalf("committed reports: %v %v", paths, err)
	}
	rep, err := LoadPerfReport(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	row := func(fabric string, ranks int) PerfEntry {
		for _, e := range rep.Entries {
			if e.Name == "allreduce" && e.Fabric == fabric && e.Ranks == ranks {
				return e
			}
		}
		t.Fatalf("%s has no allreduce row for %d ranks on %s", paths[len(paths)-1], ranks, fabric)
		return PerfEntry{}
	}
	f64, f256, f1024, f4096 := row("fattree", 64), row("fattree", 256), row("fattree", 1024), row("fattree", 4096)
	m := Measure()
	want := []string{
		"`" + filepath.Base(paths[len(paths)-1]) + "`",
		fmt.Sprintf("| FM 1.x peak bandwidth, N1/2, latency | %.2f MB/s, %d B, %.2f µs |", m.Fig3b().Peak(), m.Fig3b().NHalf(), m.FM1Lat),
		fmt.Sprintf("| MPI over FM 1.x peak, latency | %.2f MB/s, %.2f µs |", m.MPI1.Peak(), m.MPI1Lat),
		fmt.Sprintf("| FM 2.x peak bandwidth, N1/2, latency | %.2f MB/s, %d B, %.2f µs |", m.FM2.Peak(), m.FM2.NHalf(), m.FM2Lat),
		fmt.Sprintf("| MPI-FM 2.0 peak, N1/2, latency | %.2f MB/s, %d B, %.2f µs |", m.MPI2.Peak(), m.MPI2.NHalf(), m.MPI2Lat),
		fmt.Sprintf("| allreduce, fat tree, 64 / 256 / 1024 / 4096 ranks: virtual µs | %.1f / %.1f / %.1f / %.1f |",
			f64.VirtualUS, f256.VirtualUS, f1024.VirtualUS, f4096.VirtualUS),
		fmt.Sprintf("| the same rows: wall ms, events/s | %.1f / %.1f / %.1f / %.1f ms; %.1f M events/s at 1024 |",
			f64.WallMS, f256.WallMS, f1024.WallMS, f4096.WallMS, f1024.EventsPerSec/1e6),
		fmt.Sprintf("| allreduce, torus, 256 / 512 ranks: virtual µs | %.1f / %.1f |", row("torus", 256).VirtualUS, row("torus", 512).VirtualUS),
		fmt.Sprintf("| allocations per rank-op, 64 → 4096 ranks | %.1f → %.1f |", f64.AllocsPerOp, f4096.AllocsPerOp),
	}
	for _, w := range want {
		if !strings.Contains(string(readme), w) {
			t.Errorf("README.md does not print %s", w)
		}
	}
}
