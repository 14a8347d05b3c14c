package bench

import (
	"math"
	"strings"
	"testing"
)

// These tests assert the reproduced shape of every figure: who wins, by
// roughly what factor, and where the crossovers fall. The paper's own
// numbers are the rows of paper.go, which TestPaperClaims holds.

func TestFigure1Shape(t *testing.T) {
	names, curves := Figure1()
	if len(names) != 2 || len(curves) != 2 {
		t.Fatal("figure 1 needs two series")
	}
	g, e := curves[0], curves[1] // 1 Gbit, 100 Mbit
	// Both collapse to ~2 MB/s at 256 bytes (§2.2).
	if g.At(256) > 2.1 || e.At(256) > 2.1 {
		t.Errorf("256B: %.2f / %.2f MB/s, want about 2 at most", g.At(256), e.At(256))
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

func TestPaperQuotedUDPBound(t *testing.T) {
	// §2.2: with ~125 us per packet, typical packet sizes (< 256 bytes)
	// sustain no more than ~2 MB/s.
	if bw := ethernetMBps(256, 100); bw > 2.1 {
		t.Errorf("256B bandwidth %.2f MB/s, paper bound ~2", bw)
	}
}

func TestFasterLinkBarelyHelpsShortMessages(t *testing.T) {
	// A 10x faster link must yield far less than 10x delivered bandwidth;
	// at the shortest sizes the curves nearly coincide (Figure 1).
	bounds := map[int]float64{8: 1.01, 64: 1.05, 256: 1.2, 1024: 1.6}
	for n, maxGain := range bounds {
		b100, b1g := ethernetMBps(n, 100), ethernetMBps(n, 1000)
		if b1g < b100 {
			t.Errorf("1G slower than 100M at %dB", n)
		}
		if gain := b1g / b100; gain > maxGain {
			t.Errorf("at %dB the 10x link gives %.2fx bandwidth, want <= %.2fx", n, gain, maxGain)
		}
	}
}

func TestBandwidthMonotonicInSize(t *testing.T) {
	for _, l := range ethernets {
		prev := 0.0
		for n := 8; n <= ethernetMTU; n *= 2 {
			bw := ethernetMBps(n, l.mbps)
			if bw <= prev {
				t.Errorf("%s: bandwidth not increasing at %dB: %.3f <= %.3f", l.name, n, bw, prev)
			}
			prev = bw
		}
	}
}

// TestMsgTimeComponents: one full packet on 100 Mbit is 125 us of overhead
// and 120 us of wire; a byte more pays a second packet's 125 us.
func TestMsgTimeComponents(t *testing.T) {
	for _, c := range []struct {
		n  int
		us float64
	}{{ethernetMTU, 245}, {ethernetMTU + 1, 370.08}} {
		if got, want := ethernetMBps(c.n, 100), float64(c.n)/c.us; math.Abs(got/want-1) > 1e-9 {
			t.Errorf("%d B on 100 Mbit: %.4f MB/s, want %.4f (%.2f us)", c.n, got, want, c.us)
		}
	}
}

// TestHalfPowerPoint: N1/2 = 125 us × link rate, about 1562 B on 100 Mbit
// and 15 625 B on 1 Gbit, lies above the 1500-byte MTU — the whole problem —
// so no message size reaches half the link.
func TestHalfPowerPoint(t *testing.T) {
	for _, l := range ethernets {
		half := stackPerPacket.Seconds() * l.mbps / 8 * 1e6 // bytes the link moves in one packet's overhead
		if want := 15.625 * l.mbps; math.Abs(half-want) > 1 {
			t.Errorf("%s: N1/2 %.1f B, want %.1f", l.name, half, want)
		}
		if half <= ethernetMTU {
			t.Errorf("%s: N1/2 %.0f B within the %d-byte MTU", l.name, half, ethernetMTU)
		}
		for n := 8; n <= 1<<16; n *= 2 {
			if bw := ethernetMBps(n, l.mbps); bw >= l.mbps/16 {
				t.Errorf("%s at %dB: %.2f MB/s reaches half the link", l.name, n, bw)
			}
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	fin, ind := cm5Finite, cm5Indefinite
	// Indefinite sequences cost strictly more, dominated by buffer mgmt.
	if ind.total(2) <= fin.total(2) {
		t.Error("indefinite should cost more than finite")
	}
	for _, b := range []struct {
		name string
		c    cm5Cycles
	}{{"fin", fin}, {"ind", ind}} {
		if buf, tot := b.c.at(1, 2), b.c.total(2); buf*2 < tot/3 {
			t.Errorf("%s: buffer mgmt %d of %d should be the dominant guarantee", b.name, buf, tot)
		}
	}
}

// TestPaperCaseReproducesQuotedCycles: §2.3, "in one case (16-word
// messages, 4-word packet size, multi-packet delivery) 216 out of a total
// 397 cycles are spent for buffer management (148 cycles), in-order
// delivery (21 cycles) and fault tolerance (47 cycles)".
func TestPaperCaseReproducesQuotedCycles(t *testing.T) {
	c := cm5Finite
	for f, want := range []int{181, 148, 21, 47} {
		if got := c.at(f, 2); got != want {
			t.Errorf("%s: %d cycles, want %d", cm5Features[f], got, want)
		}
	}
	if got := c.total(2); got != 397 {
		t.Errorf("total cycles %d, want 397", got)
	}
	if got := c.total(2) - c.at(0, 2); got != 216 {
		t.Errorf("guarantee cycles %d, want 216", got)
	}
}

func TestSidesSumToTotal(t *testing.T) {
	for _, b := range []struct {
		name string
		c    cm5Cycles
	}{{"fin", cm5Finite}, {"ind", cm5Indefinite}} {
		for f, name := range cm5Features {
			if b.c.at(f, 0)+b.c.at(f, 1) != b.c.at(f, 2) {
				t.Errorf("%s/%s: sides do not sum to total", b.name, name)
			}
		}
		if b.c.total(0)+b.c.total(1) != b.c.total(2) {
			t.Errorf("%s: side totals inconsistent", b.name)
		}
	}
}

func TestIndefiniteCostsMore(t *testing.T) {
	fin, ind := cm5Finite, cm5Indefinite
	if ind.total(2) <= fin.total(2) {
		t.Error("indefinite sequence should cost more than finite")
	}
	if ind.at(1, 2) <= fin.at(1, 2) {
		t.Error("indefinite buffer management should cost more")
	}
}

func TestFigure3aStagesOrdered(t *testing.T) {
	_, curves := Figure3a()
	if len(curves) != 3 {
		t.Fatal("figure 3a needs three staged engines")
	}
	link, bus, flow := curves[0], curves[1], curves[2]
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
	full := Measure().Fig3b()
	if link.At(512) < 2*full.At(512) {
		t.Errorf("link-only %.2f should far exceed full engine %.2f", link.At(512), full.At(512))
	}
}

func TestFigure3bHeadline(t *testing.T) {
	// Monotone rising curve.
	c := Measure().Fig3b()
	for i := 1; i < len(c); i++ {
		if c[i].MBps < c[i-1].MBps*0.95 {
			t.Errorf("FM1 curve dips at %dB", c[i].Size)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	m := Measure()
	fm, mpi, eff := m.FM1, m.MPI1, m.MPI1Eff()
	// MPI-FM 1.x is poor across the whole sweep, short messages included.
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
	m := Measure()
	// Nearly fourfold absolute improvement over FM 1.x (the abstract).
	if ratio := m.FM2.Peak() / m.Fig3b().Peak(); ratio < 3.5 || ratio > 5.5 {
		t.Errorf("FM2/FM1 peak ratio %.1f, want nearly fourfold", ratio)
	}
}

func TestFigure6Shape(t *testing.T) {
	eff := Measure().MPI2Eff()
	// Monotone non-decreasing efficiency with size (the paper's "increases
	// rapidly" shape).
	for i := 1; i < len(eff); i++ {
		if eff[i].MBps < eff[i-1].MBps-3 {
			t.Errorf("efficiency dips at %dB: %.1f after %.1f", eff[i].Size, eff[i].MBps, eff[i-1].MBps)
		}
	}
}

func TestInterfaceEfficiencyStory(t *testing.T) {
	// The abstract's one-line story: the FM 1.x interface delivered a small
	// share of FM to MPI, FM 2.x most of it. The gap must be large.
	m := Measure()
	eff1, eff6 := m.MPI1Eff(), m.MPI2Eff()
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
