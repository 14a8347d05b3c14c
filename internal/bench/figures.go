package bench

import (
	"fmt"
	"io"

	"repro/internal/cmam"
	"repro/internal/fm1"
	"repro/internal/lanai"
	"repro/internal/legacy"
	"repro/internal/xport"
)

// This file regenerates every table and figure of the paper's evaluation.
// Figures 1 and 3a compute their own data; Figures 2, 3b and 4-6 render the
// one measured pass (Measure) and end with their rows of the paper table
// (paper.go). Each WriteFigureN renders its figure in the shape the paper
// reports (same series, same size sweeps).

// Fig1Sizes is Figure 1's sweep (8-1024 bytes).
var Fig1Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Figure1 computes theoretical Ethernet bandwidth under a fixed 125 us
// protocol overhead for 100 Mbit and 1 Gbit links.
func Figure1() (names []string, curves []Curve) {
	for _, s := range []legacy.Stack{legacy.Ethernet1G(), legacy.Ethernet100()} {
		c := Curve{}
		for _, n := range Fig1Sizes {
			c = append(c, Point{n, s.Bandwidth(n)})
		}
		names = append(names, s.Name)
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

// WriteFigure2 renders Figure 2, the CMAM overhead breakdown for finite and
// indefinite sequences, as the paper's stacked-bar data.
func WriteFigure2(w io.Writer) {
	m := Measure()
	fin, ind := m.Fin, m.Ind
	fmt.Fprintln(w, "Figure 2: Breakdown of overhead for Active Messages on the CM-5 (cycles)")
	fmt.Fprintf(w, "  %-14s", "")
	for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
		fmt.Fprintf(w, "  %8s", "Fin/"+s.String())
	}
	for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
		fmt.Fprintf(w, "  %8s", "Ind/"+s.String())
	}
	fmt.Fprintln(w)
	feats := []cmam.Feature{cmam.BaseCost, cmam.BufferMgmt, cmam.InOrder, cmam.FaultTolerance}
	for _, f := range feats {
		fmt.Fprintf(w, "  %-14s", f)
		for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
			fmt.Fprintf(w, "  %8d", fin.Get(f, s))
		}
		for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
			fmt.Fprintf(w, "  %8d", ind.Get(f, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-14s", "TOTAL")
	for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
		fmt.Fprintf(w, "  %8d", fin.TotalCycles(s))
	}
	for _, s := range []cmam.Side{cmam.Src, cmam.Dest, cmam.Total} {
		fmt.Fprintf(w, "  %8d", ind.TotalCycles(s))
	}
	fmt.Fprintln(w)
	writeClaims(w, m, "CM-5 AM")
}

// Figure3a computes the staged FM 1.x overhead breakdown curves, one per
// engine stage, in the paper's legend order.
func Figure3a() (names []string, curves []Curve) {
	linkOnly := xport.GenFM1.Machine()
	linkOnly.NIC = lanai.Config{DisableBus: true}
	linkOnly.FM1 = fm1.Config{DisableFlowControl: true, DisableBufferMgmt: true}

	withBus := xport.GenFM1.Machine()
	withBus.FM1 = fm1.Config{DisableFlowControl: true, DisableBufferMgmt: true}

	withFlow := xport.GenFM1.Machine()
	withFlow.FM1 = fm1.Config{DisableBufferMgmt: true}

	for _, m := range []xport.Machine{linkOnly, withBus, withFlow} {
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
