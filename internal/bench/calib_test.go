package bench

import (
	"testing"

	"repro/internal/xport"
)

// TestCalibrationReport prints the headline numbers against the paper's
// targets; run with -v. Assertions here are generous envelopes — exact
// shape checks live in the figure tests.
func TestCalibrationReport(t *testing.T) {
	fm1c := FMCurve(DefaultOptions(xport.GenFM1), StdSizes)
	fm1lat := FMLatency(DefaultOptions(xport.GenFM1), 16, 50)
	t.Logf("FM1: peak %.2f MB/s (paper 17.6), N1/2 %d B (paper 54), latency %.2f us (paper 14)",
		fm1c.Peak(), fm1c.NHalf(), fm1lat.Micros())
	for _, pt := range fm1c {
		t.Logf("  fm1 %5d B  %6.2f MB/s", pt.Size, pt.MBps)
	}

	fm2c := FMCurve(DefaultOptions(xport.GenFM2), StdSizes)
	fm2lat := FMLatency(DefaultOptions(xport.GenFM2), 16, 50)
	t.Logf("FM2: peak %.2f MB/s (paper 77), N1/2 %d B (paper <256), latency %.2f us (paper 11)",
		fm2c.Peak(), fm2c.NHalf(), fm2lat.Micros())
	for _, pt := range fm2c {
		t.Logf("  fm2 %5d B  %6.2f MB/s", pt.Size, pt.MBps)
	}

	mpi1 := MPICurve(xport.GenFM1, StdSizes)
	eff1 := Efficiency(mpi1, fm1c)
	mpi1lat := MPILatency(xport.GenFM1, 16, 50)
	t.Logf("MPI-FM1: peak %.2f MB/s (paper ~3.5-6), max eff %.0f%% (paper <=35%%), latency %.2f us",
		mpi1.Peak(), eff1.Peak(), mpi1lat.Micros())
	for i, pt := range mpi1 {
		t.Logf("  mpi1 %5d B  %6.2f MB/s  %5.1f%%", pt.Size, pt.MBps, eff1[i].MBps)
	}

	mpi2 := MPICurve(xport.GenFM2, StdSizes)
	eff2 := Efficiency(mpi2, fm2c)
	mpi2lat := MPILatency(xport.GenFM2, 16, 50)
	t.Logf("MPI-FM2: peak %.2f MB/s (paper 70), eff@16B %.0f%% (paper >70%%), max eff %.0f%% (paper ~90%%), latency %.2f us (paper 17)",
		mpi2.Peak(), eff2.At(16), eff2.Peak(), mpi2lat.Micros())
	for i, pt := range mpi2 {
		t.Logf("  mpi2 %5d B  %6.2f MB/s  %5.1f%%", pt.Size, pt.MBps, eff2[i].MBps)
	}
}
