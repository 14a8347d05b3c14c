package bench

import (
	"strings"
	"testing"

	"repro/internal/xport"
)

// These tests assert the reproduced shape of every figure: who wins, by
// roughly what factor, and where the crossovers fall. Absolute values are
// given generous envelopes around the paper's numbers.

func TestFigure1Shape(t *testing.T) {
	names, curves := Figure1()
	if len(names) != 2 || len(curves) != 2 {
		t.Fatal("figure 1 needs two series")
	}
	g, e := curves[0], curves[1] // 1 Gbit, 100 Mbit
	// Both collapse to ~2 MB/s at 256 bytes (paper §2.2).
	if g.At(256) > 2.1 || e.At(256) > 2.1 {
		t.Errorf("256B: %.2f / %.2f MB/s, paper bound ~2", g.At(256), e.At(256))
	}
	// Even at 1024 B neither delivers 10 MB/s: overhead dominates.
	if g.At(1024) > 10 {
		t.Errorf("1G at 1024B: %.2f MB/s, want < 10", g.At(1024))
	}
	// The gigabit curve stays above but close to the 100 Mbit curve.
	for i := range g {
		if g[i].MBps < e[i].MBps {
			t.Errorf("1G below 100M at %dB", g[i].Size)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	fin, ind := Figure2()
	// The quoted case: 397 total, 216 on guarantees.
	if fin.TotalCycles(2) != 397 {
		t.Errorf("finite total %d, want 397", fin.TotalCycles(2))
	}
	// Indefinite sequences cost strictly more, dominated by buffer mgmt.
	if ind.TotalCycles(2) <= fin.TotalCycles(2) {
		t.Error("indefinite should cost more than finite")
	}
	for _, b := range []struct {
		name string
		tot  int
		buf  int
	}{{"fin", fin.TotalCycles(2), fin.Cycles[1][2]}, {"ind", ind.TotalCycles(2), ind.Cycles[1][2]}} {
		if b.buf*2 < b.tot/3 {
			t.Errorf("%s: buffer mgmt %d of %d should be the dominant guarantee", b.name, b.buf, b.tot)
		}
	}
}

func TestFigure3aStagesOrdered(t *testing.T) {
	names, curves := Figure3a()
	if len(curves) != 3 {
		t.Fatal("figure 3a needs three staged engines")
	}
	link, bus, flow := curves[0], curves[1], curves[2]
	_ = names
	// At every size: adding the I/O bus transfer costs a lot (it is on the
	// critical path); adding flow control costs little (it overlaps).
	for i := range link {
		sz := link[i].Size
		if link[i].MBps <= bus[i].MBps {
			t.Errorf("at %dB: link-only %.2f <= +bus %.2f; bus must be the big drop",
				sz, link[i].MBps, bus[i].MBps)
		}
		if bus[i].MBps < flow[i].MBps*0.98 {
			t.Errorf("at %dB: +flow %.2f above +bus %.2f", sz, flow[i].MBps, bus[i].MBps)
		}
		// Flow control costs < 20% of the bus-stage bandwidth.
		if flow[i].MBps < bus[i].MBps*0.8 {
			t.Errorf("at %dB: flow control cost too high: %.2f vs %.2f",
				sz, flow[i].MBps, bus[i].MBps)
		}
	}
	// Link-only at 512B is several times the full engine's bandwidth.
	full := Figure3b()
	if link.At(512) < 2*full.At(512) {
		t.Errorf("link-only %.2f should far exceed full engine %.2f", link.At(512), full.At(512))
	}
}

func TestFigure3bHeadline(t *testing.T) {
	c := Figure3b()
	if p := c.Peak(); p < 15 || p > 20 {
		t.Errorf("FM1 peak %.2f MB/s, paper 17.6", p)
	}
	if n := c.NHalf(); n < 30 || n > 80 {
		t.Errorf("FM1 N1/2 %d, paper 54", n)
	}
	lat := FMLatency(DefaultOptions(xport.GenFM1), 16, 50)
	if us := lat.Micros(); us < 9 || us > 19 {
		t.Errorf("FM1 latency %.2f us, paper 14", us)
	}
	// Monotone rising curve.
	for i := 1; i < len(c); i++ {
		if c[i].MBps < c[i-1].MBps*0.95 {
			t.Errorf("FM1 curve dips at %dB", c[i].Size)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	fm, mpi, eff := Figure4()
	// MPI-FM 1.x delivers a small fraction of FM: max efficiency well under
	// half, per the paper's <=35% finding (envelope to 50%).
	if e := eff.Peak(); e > 50 {
		t.Errorf("MPI-FM1 max efficiency %.0f%%, paper <= 35%%", e)
	}
	// And it is low across the whole sweep, including short messages.
	if e := eff.At(16); e > 40 {
		t.Errorf("MPI-FM1 @16B efficiency %.0f%%, should be poor", e)
	}
	// FM wins everywhere by a wide margin.
	for i := range fm {
		if mpi[i].MBps > fm[i].MBps*0.55 {
			t.Errorf("at %dB MPI-FM1 %.2f too close to FM %.2f", fm[i].Size, mpi[i].MBps, fm[i].MBps)
		}
	}
}

func TestFigure5Headline(t *testing.T) {
	c := Figure5()
	if p := c.Peak(); p < 70 || p > 88 {
		t.Errorf("FM2 peak %.2f MB/s, paper 77", p)
	}
	if n := c.NHalf(); n <= 0 || n >= 256 {
		t.Errorf("FM2 N1/2 %d, paper < 256", n)
	}
	lat := FMLatency(DefaultOptions(xport.GenFM2), 16, 50)
	if us := lat.Micros(); us < 7 || us > 15 {
		t.Errorf("FM2 latency %.2f us, paper 11", us)
	}
	// Nearly fourfold absolute improvement over FM 1.x (paper abstract).
	fm1c := Figure3b()
	if ratio := c.Peak() / fm1c.Peak(); ratio < 3.5 || ratio > 5.5 {
		t.Errorf("FM2/FM1 peak ratio %.1f, paper ~4x", ratio)
	}
}

func TestFigure6Shape(t *testing.T) {
	_, mpi, eff := Figure6()
	// Over 70% even at 16 bytes (paper §1).
	if e := eff.At(16); e < 65 {
		t.Errorf("MPI-FM2 @16B efficiency %.0f%%, paper > 70%%", e)
	}
	// Rises to ~90%.
	if e := eff.Peak(); e < 85 {
		t.Errorf("MPI-FM2 max efficiency %.0f%%, paper ~90%%", e)
	}
	// Monotone non-decreasing efficiency with size (the paper's "increases
	// rapidly" shape).
	for i := 1; i < len(eff); i++ {
		if eff[i].MBps < eff[i-1].MBps-3 {
			t.Errorf("efficiency dips at %dB: %.1f after %.1f", eff[i].Size, eff[i].MBps, eff[i-1].MBps)
		}
	}
	// Peak around the paper's 70 MB/s (envelope).
	if p := mpi.Peak(); p < 60 || p > 82 {
		t.Errorf("MPI-FM2 peak %.2f MB/s, paper 70", p)
	}
}

func TestInterfaceEfficiencyStory(t *testing.T) {
	// The abstract's one-line story: the FM 1.x interface delivered ~20-35%
	// to MPI; FM 2.x delivers 70-90%+. The gap must be large.
	_, _, eff1 := Figure4()
	_, _, eff6 := Figure6()
	if eff6.At(2048) < 2*eff1.At(2048) {
		t.Errorf("FM2 efficiency %.0f%% must dwarf FM1's %.0f%%", eff6.At(2048), eff1.At(2048))
	}
}

func TestWritersProduceTables(t *testing.T) {
	var sb strings.Builder
	WriteFigure1(&sb)
	WriteFigure2(&sb)
	WriteTable1(&sb)
	WriteTable2(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Table 1", "Table 2",
		"FM_send_piece", "FM_extract", "Buffer Mgmt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestNHalfComputation(t *testing.T) {
	c := Curve{{16, 10}, {32, 40}, {64, 80}, {128, 100}}
	// Half peak = 50: between 32 (40) and 64 (80): 32 + 10/40*32 = 40.
	if n := c.NHalf(); n != 40 {
		t.Errorf("NHalf = %d, want 40", n)
	}
	if n := (Curve{{16, 100}, {32, 100}}).NHalf(); n != 0 {
		t.Errorf("flat curve NHalf = %d, want 0", n)
	}
	if n := (Curve{}).NHalf(); n != -1 {
		t.Errorf("empty curve NHalf = %d, want -1", n)
	}
}

func TestEfficiencyHelper(t *testing.T) {
	num := Curve{{16, 50}, {32, 80}}
	den := Curve{{16, 100}, {32, 100}}
	eff := Efficiency(num, den)
	if eff[0].MBps != 50 || eff[1].MBps != 80 {
		t.Errorf("efficiency %v", eff)
	}
}

func TestMsgsForBounds(t *testing.T) {
	if MsgsFor(16) != 8000 || MsgsFor(1<<20) != 200 {
		t.Errorf("MsgsFor bounds: %d %d", MsgsFor(16), MsgsFor(1<<20))
	}
}
