package bench

import "testing"

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
