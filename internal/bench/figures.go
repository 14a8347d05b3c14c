package bench

import (
	"fmt"
	"io"

	"repro/internal/hostmodel"
	"repro/internal/sim"
	"repro/internal/xport"
)

// This file regenerates every table and figure of the paper's evaluation.
// Figures 1 and 2 are the paper's two closed-form models of §2, each a
// table here, and measure nothing; Figure 3a computes its own data; Figures
// 3b and 4-6 render the one measured pass (Measure). Figures 2-6 end with
// their rows of the paper table (paper.go). Each WriteFigureN renders its figure in the shape the
// paper reports (same series, same size sweeps).

// Figure 1 (§2.2) is a closed form: a kernel protocol stack spends 125 us of
// host work on every packet of up to 1500 bytes, in front of the wire. So an
// n-byte message takes ⌈n/1500⌉ × 125 us + n/link, and a link's half-power
// point, 125 us × its rate, lies above the MTU: no packet ever reaches half
// the link, however fast it is.
const (
	stackPerPacket = 125 * sim.Microsecond
	ethernetMTU    = 1500
)

// ethernets are Figure 1's two links in Mbit/s, in its series order.
var ethernets = []struct {
	name string
	mbps float64
}{{"1 Gbit/s", 1000}, {"100 Mbit/s", 100}}

// ethernetMBps is Figure 1's curve: the MB/s n-byte messages deliver on a
// link of mbps Mbit/s.
func ethernetMBps(n int, mbps float64) float64 {
	pkts := max(1, (n+ethernetMTU-1)/ethernetMTU)
	return sim.MBps(int64(n), sim.Time(pkts)*stackPerPacket+sim.BytesTime(n, mbps/8))
}

// Fig1Sizes is Figure 1's sweep (8-1024 bytes).
var Fig1Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Figure1 computes theoretical Ethernet bandwidth under a fixed 125 us
// protocol overhead for 1 Gbit and 100 Mbit links.
func Figure1() (names []string, curves []Curve) {
	for _, l := range ethernets {
		c := Curve{}
		for _, n := range Fig1Sizes {
			c = append(c, Point{n, ethernetMBps(n, l.mbps)})
		}
		names = append(names, l.name)
		curves = append(curves, c)
	}
	return names, curves
}

// WriteFigure1 renders Figure 1.
func WriteFigure1(w io.Writer) {
	names, curves := Figure1()
	WriteSeries(w, "Figure 1: Ethernet bandwidth with 125us/packet protocol overhead (MB/s)",
		names, curves)
}

// cm5Cycles is one bar group of Figure 2 (§2.3, after Karamcheti & Chien):
// the cycles a CM-5 Active Messages transfer spends on each row of
// cm5Features — the base transfer, then the three guarantees the CM-5
// network does not provide — at the source [0] and the destination [1].
type cm5Cycles [4][2]int

var cm5Features = [4]string{"Base Cost", "Buffer Mgmt", "In-order Del.", "Fault-toler."}

// cm5Model is Figure 2's closed form for its one transfer, a 16-word message
// in 4-word packets. The per-message and per-packet terms are calibrated so
// that the finite sequence (a message of known length) reproduces the
// paper's quoted 397 cycles, 216 of them on buffer management (148),
// in-order delivery (21) and fault tolerance (47).
func cm5Model(indefinite bool) cm5Cycles {
	const p = 16 / 4 // packets
	c := cm5Cycles{
		{22 + 13*p, 27 + 20*p}, // setup and injection; dispatch and handler entry
		{8 + 10*p, 24 + 19*p},  // allocate, track and recycle packet buffers: the network buffers nothing
		{1 + p, 4 * p},         // sequence numbers, checked on receipt
		{3 + 2*p, 8 + 7*p},     // checksum and acknowledgment bookkeeping
	}
	if indefinite {
		// A stream whose end is data-dependent: every packet carries and
		// checks a continuation marker, and buffers cannot be preallocated
		// for a known count.
		c[0][0], c[0][1] = c[0][0]+3*p, c[0][1]+4*p
		c[1][0], c[1][1] = c[1][0]+2*p, c[1][1]+6*p
		c[3][0], c[3][1] = c[3][0]+p, c[3][1]+p
	}
	return c
}

var cm5Finite, cm5Indefinite = cm5Model(false), cm5Model(true)

// at reports row f's cycles at the source (side 0), the destination (1) or
// both (2).
func (c cm5Cycles) at(f, side int) int {
	if side == 2 {
		return c[f][0] + c[f][1]
	}
	return c[f][side]
}

// total reports every row's cycles on a side.
func (c cm5Cycles) total(side int) int {
	t := 0
	for f := range c {
		t += c.at(f, side)
	}
	return t
}

// guaranteeShare is the share of all cycles spent on guarantees — every row
// but the base — the paper's "50%-70% of the software messaging costs".
func (c cm5Cycles) guaranteeShare() float64 {
	return float64(c.total(2)-c.at(0, 2)) / float64(c.total(2))
}

// WriteFigure2 renders Figure 2, the CMAM overhead breakdown for finite and
// indefinite sequences, as the paper's stacked-bar data.
func WriteFigure2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2: Breakdown of overhead for Active Messages on the CM-5 (cycles)")
	fmt.Fprintf(w, "  %-14s", "")
	for _, bar := range []string{"Fin/", "Ind/"} {
		for _, side := range []string{"Src", "Dest", "Total"} {
			fmt.Fprintf(w, "  %8s", bar+side)
		}
	}
	fmt.Fprintln(w)
	row := func(name string, cycles func(c cm5Cycles, side int) int) {
		fmt.Fprintf(w, "  %-14s", name)
		for _, c := range []cm5Cycles{cm5Finite, cm5Indefinite} {
			for side := 0; side < 3; side++ {
				fmt.Fprintf(w, "  %8d", cycles(c, side))
			}
		}
		fmt.Fprintln(w)
	}
	for f, name := range cm5Features {
		row(name, func(c cm5Cycles, side int) int { return c.at(f, side) })
	}
	row("TOTAL", cm5Cycles.total)
	writeClaims(w, nil, "CM-5 AM") // its rows read this table, not the measured pass
}

// Figure3a computes the staged FM 1.x overhead breakdown curves, one per
// engine stage, in the paper's legend order.
func Figure3a() (names []string, curves []Curve) {
	for _, s := range []hostmodel.Stage{hostmodel.StageLink, hostmodel.StageBus, hostmodel.StageFlowControl} {
		m := xport.GenFM1.Machine()
		m.Profile.Stage = s
		curves = append(curves, FMCurve(m, ShortSizes))
	}
	return []string{"Link Mgmt", "I/O bus Mgmt", "Flow Control"}, curves
}

// WriteFigure3 renders both panels of Figure 3.
func WriteFigure3(w io.Writer) {
	names, curves := Figure3a()
	WriteSeries(w, "Figure 3a: FM 1.x overhead breakdown (MB/s)", names, curves)
	m := Measure()
	WriteCurve(w, "Figure 3b: FM 1.x overall performance (MB/s)", "MB/s", m.Fig3b())
	writeClaims(w, m, "FM 1.x")
}

// WriteFigure4 renders Figure 4: MPI-FM 1.x against FM 1.x, in MB/s and as
// efficiency.
func WriteFigure4(w io.Writer) {
	m := Measure()
	WriteSeries(w, "Figure 4a: MPI-FM 1.x vs FM 1.x (MB/s)", []string{"FM", "MPI-FM"}, []Curve{m.FM1, m.MPI1})
	WriteCurve(w, "Figure 4b: MPI-FM 1.x efficiency", "% of FM", m.MPI1Eff())
	writeClaims(w, m, "MPI-FM 1.x")
}

// WriteFigure5 renders Figure 5: FM 2.x on the PPro machine.
func WriteFigure5(w io.Writer) {
	m := Measure()
	WriteCurve(w, "Figure 5: FM 2.1 performance on a 200 MHz PPro (MB/s)", "MB/s", m.FM2)
	writeClaims(w, m, "FM 2.x")
}

// WriteFigure6 renders Figure 6: MPI-FM 2.0 against FM 2.0, in MB/s and as
// efficiency.
func WriteFigure6(w io.Writer) {
	m := Measure()
	WriteSeries(w, "Figure 6a: MPI-FM 2.0 vs FM 2.0 (MB/s)", []string{"FM", "MPI-FM"}, []Curve{m.FM2, m.MPI2})
	WriteCurve(w, "Figure 6b: MPI-FM 2.0 efficiency", "% of FM", m.MPI2Eff())
	writeClaims(w, m, "MPI-FM 2.x")
}

// WriteTable1 documents the FM 1.1 API (Table 1) against this library.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: The primitives of the FM 1.1 API")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_send_4(dest,handler,i0,i1,i2,i3)", "fm1.Endpoint.Send4")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_send(dest,handler,buf,size)", "fm1.Endpoint.Send")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_extract()", "fm1.Endpoint.Extract")
}

// WriteTable2 documents the FM 2.x API (Table 2) against this library.
func WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: The primitives of the FM 2.x API")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_begin_message(dest,size,handler)", "fm2.Endpoint.BeginMessage")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_send_piece(stream,buf,bytes)", "fm2.SendStream.SendPiece")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_end_message(stream)", "fm2.SendStream.EndMessage")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_receive(stream,buf,bytes)", "fm2.RecvStream.Receive")
	fmt.Fprintf(w, "  %-42s %s\n", "FM_extract(bytes)", "fm2.Endpoint.Extract")
}
