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
// Each FigureN function computes the data; each WriteFigureN renders it in
// the shape the paper reports (same series, same size sweeps).

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

// Figure2 computes the CMAM overhead breakdown for finite and indefinite
// sequences (16-word messages, 4-word packets).
func Figure2() (fin, ind cmam.Breakdown) {
	fin = cmam.Model(cmam.Config{MsgWords: 16, PacketWords: 4, Seq: cmam.Finite})
	ind = cmam.Model(cmam.Config{MsgWords: 16, PacketWords: 4, Seq: cmam.Indefinite})
	return fin, ind
}

// WriteFigure2 renders Figure 2 as the paper's stacked-bar data.
func WriteFigure2(w io.Writer) {
	fin, ind := Figure2()
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
	fmt.Fprintf(w, "  guarantees share of total: finite %.0f%%, indefinite %.0f%% (paper: 50-70%%)\n",
		100*fin.GuaranteeShare(cmam.Total), 100*ind.GuaranteeShare(cmam.Total))
}

// Fig3aStages are the staged FM 1.x engines of Figure 3a, in the paper's
// legend order.
func Fig3aStages() (names []string, opts []Options) {
	linkOnly := DefaultOptions(xport.GenFM1)
	linkOnly.NIC = lanai.Config{OnRingFull: lanai.RingStall, ChargeBus: false}
	linkOnly.FM.FM1 = fm1.Config{DisableFlowControl: true, DisableBufferMgmt: true}

	withBus := DefaultOptions(xport.GenFM1)
	withBus.FM.FM1 = fm1.Config{DisableFlowControl: true, DisableBufferMgmt: true}

	withFlow := DefaultOptions(xport.GenFM1)
	withFlow.FM.FM1 = fm1.Config{DisableBufferMgmt: true}

	return []string{"Link Mgmt", "I/O bus Mgmt", "Flow Control"},
		[]Options{linkOnly, withBus, withFlow}
}

// Figure3a computes the staged FM 1.x overhead breakdown curves.
func Figure3a() (names []string, curves []Curve) {
	names, opts := Fig3aStages()
	for _, o := range opts {
		curves = append(curves, FMCurve(o, ShortSizes))
	}
	return names, curves
}

// Figure3b computes the final FM 1.x bandwidth curve.
func Figure3b() Curve { return FMCurve(DefaultOptions(xport.GenFM1), ShortSizes) }

// WriteFigure3 renders both panels of Figure 3.
func WriteFigure3(w io.Writer) {
	names, curves := Figure3a()
	WriteSeries(w, "Figure 3a: FM 1.x overhead breakdown (MB/s)", names, curves)
	full := Figure3b()
	WriteCurve(w, "Figure 3b: FM 1.x overall performance (MB/s)", "MB/s", full)
	lat := FMLatency(DefaultOptions(xport.GenFM1), 16, 50)
	fmt.Fprintf(w, "  peak %.2f MB/s (paper 17.6)   N1/2 %d B (paper 54)   latency %.2f us (paper 14)\n",
		full.Peak(), full.NHalf(), lat.Micros())
}

// Figure4 computes MPI-FM 1.x vs FM 1.x: absolute bandwidth and efficiency.
func Figure4() (fm, mpi, eff Curve) {
	fm = FMCurve(DefaultOptions(xport.GenFM1), StdSizes)
	mpi = MPICurve(xport.GenFM1, StdSizes)
	return fm, mpi, Efficiency(mpi, fm)
}

// WriteFigure4 renders Figure 4.
func WriteFigure4(w io.Writer) {
	fm, mpi, eff := Figure4()
	WriteSeries(w, "Figure 4a: MPI-FM 1.x vs FM 1.x (MB/s)", []string{"FM", "MPI-FM"}, []Curve{fm, mpi})
	WriteCurve(w, "Figure 4b: MPI-FM 1.x efficiency", "% of FM", eff)
	fmt.Fprintf(w, "  MPI-FM peak %.2f MB/s; max efficiency %.0f%% (paper: <=35%%, ~20%% at peak)\n",
		mpi.Peak(), eff.Peak())
}

// Figure5 computes the FM 2.x bandwidth curve on the PPro machine.
func Figure5() Curve { return FMCurve(DefaultOptions(xport.GenFM2), StdSizes) }

// WriteFigure5 renders Figure 5.
func WriteFigure5(w io.Writer) {
	c := Figure5()
	WriteCurve(w, "Figure 5: FM 2.1 performance on a 200 MHz PPro (MB/s)", "MB/s", c)
	lat := FMLatency(DefaultOptions(xport.GenFM2), 16, 50)
	fmt.Fprintf(w, "  peak %.2f MB/s (paper 77)   N1/2 %d B (paper <256)   latency %.2f us (paper 11)\n",
		c.Peak(), c.NHalf(), lat.Micros())
}

// Figure6 computes MPI-FM 2.0 vs FM 2.0: absolute bandwidth and efficiency.
func Figure6() (fm, mpi, eff Curve) {
	fm = FMCurve(DefaultOptions(xport.GenFM2), StdSizes)
	mpi = MPICurve(xport.GenFM2, StdSizes)
	return fm, mpi, Efficiency(mpi, fm)
}

// WriteFigure6 renders Figure 6.
func WriteFigure6(w io.Writer) {
	fm, mpi, eff := Figure6()
	WriteSeries(w, "Figure 6a: MPI-FM 2.0 vs FM 2.0 (MB/s)", []string{"FM", "MPI-FM"}, []Curve{fm, mpi})
	WriteCurve(w, "Figure 6b: MPI-FM 2.0 efficiency", "% of FM", eff)
	lat := MPILatency(xport.GenFM2, 16, 50)
	fmt.Fprintf(w, "  MPI-FM peak %.2f MB/s (paper 70)   eff@16B %.0f%% (paper >70%%)   max eff %.0f%% (paper ~90%%)   latency %.2f us (paper 17)\n",
		mpi.Peak(), eff.At(16), eff.Peak(), lat.Micros())
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

// Headline computes the summary Result values used by EXPERIMENTS.md.
func Headline() []Result {
	fm1c := Figure3b()
	fm2c := Figure5()
	_, mpi1, _ := Figure4()
	_, mpi2, _ := Figure6()
	return []Result{
		{Name: "FM 1.x (sparc)", PeakMBps: fm1c.Peak(), NHalf: fm1c.NHalf(),
			LatencyUS: FMLatency(DefaultOptions(xport.GenFM1), 16, 50).Micros()},
		{Name: "MPI over FM 1.x", PeakMBps: mpi1.Peak(), NHalf: mpi1.NHalf(),
			LatencyUS: MPILatency(xport.GenFM1, 16, 50).Micros()},
		{Name: "FM 2.x (ppro200)", PeakMBps: fm2c.Peak(), NHalf: fm2c.NHalf(),
			LatencyUS: FMLatency(DefaultOptions(xport.GenFM2), 16, 50).Micros()},
		{Name: "MPI-FM 2.0", PeakMBps: mpi2.Peak(), NHalf: mpi2.NHalf(),
			LatencyUS: MPILatency(xport.GenFM2, 16, 50).Micros()},
	}
}
