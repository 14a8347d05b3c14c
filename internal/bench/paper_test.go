package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
		in := c.holds(v)
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
// headline rows from Measure, their paper column from Claims, and the
// allreduce rows' virtual time from fmbench's perf4096 golden, which its
// introduction names. Each row is checked at the precision README prints, so
// a number that moves fails here instead of leaving README stale.
func TestREADMENumbersHoldToTheirSources(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const ladder = "cmd/fmbench/testdata/perf4096.golden"
	golden, err := os.ReadFile(filepath.Join("..", "..", ladder))
	if err != nil {
		t.Fatal(err)
	}
	// virtualUS reads a row's virtual_us: bench, fabric, ranks, virtual_us,
	// events, digest.
	virtualUS := func(fabric string, ranks int) float64 {
		for _, line := range strings.Split(string(golden), "\n") {
			f := strings.Fields(line)
			if len(f) == 6 && f[0] == "allreduce" && f[1] == fabric && f[2] == strconv.Itoa(ranks) {
				v, err := strconv.ParseFloat(f[3], 64)
				if err != nil {
					t.Fatalf("%s: %v", ladder, err)
				}
				return v
			}
		}
		t.Fatalf("%s has no allreduce row for %d ranks on %s", ladder, ranks, fabric)
		return 0
	}
	// paper renders the paper column: each label's claim as README prints
	// it, — where the paper states none.
	paper := func(system string, labels ...string) string {
		cells := make([]string, len(labels))
		for i, label := range labels {
			cells[i] = "—"
			for _, c := range Claims {
				if c.System != system || c.Label != label {
					continue
				}
				v, unit := num(c.Value), strings.ReplaceAll(c.Unit, "us", "µs")
				switch c.Bound {
				case AtMost:
					v = "≤ " + v
				case AtLeast:
					v = "≥ " + v
				case Between:
					v = num(c.Low) + "–" + v
				}
				cells[i] = v + unit
			}
		}
		return strings.Join(cells, ", ")
	}
	m := Measure()
	want := []string{
		"`" + ladder + "`",
		fmt.Sprintf("| FM 1.x peak bandwidth, N1/2, latency | %.2f MB/s, %d B, %.2f µs | %s |",
			m.Fig3b().Peak(), m.Fig3b().NHalf(), m.FM1Lat, paper("FM 1.x", "peak", "N1/2", "latency")),
		fmt.Sprintf("| MPI over FM 1.x peak, latency | %.2f MB/s, %.2f µs | %s |",
			m.MPI1.Peak(), m.MPI1Lat, paper("MPI-FM 1.x", "peak", "latency")),
		fmt.Sprintf("| FM 2.x peak bandwidth, N1/2, latency | %.2f MB/s, %d B, %.2f µs | %s |",
			m.FM2.Peak(), m.FM2.NHalf(), m.FM2Lat, paper("FM 2.x", "peak", "N1/2", "latency")),
		fmt.Sprintf("| MPI-FM 2.0 peak, N1/2, latency | %.2f MB/s, %d B, %.2f µs | %s |",
			m.MPI2.Peak(), m.MPI2.NHalf(), m.MPI2Lat, paper("MPI-FM 2.x", "peak", "N1/2", "latency")),
		fmt.Sprintf("| allreduce, fat tree, 64 / 256 / 1024 / 4096 ranks: virtual µs | %.1f / %.1f / %.1f / %.1f |",
			virtualUS("fattree", 64), virtualUS("fattree", 256), virtualUS("fattree", 1024), virtualUS("fattree", 4096)),
		fmt.Sprintf("| allreduce, torus, 256 / 512 ranks: virtual µs | %.1f / %.1f |", virtualUS("torus", 256), virtualUS("torus", 512)),
	}
	for _, w := range want {
		if !strings.Contains(string(readme), w) {
			t.Errorf("README.md does not print %s", w)
		}
	}
}
