// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation and substrate microbenchmarks. Each
// figure benchmark regenerates its figure per iteration and reports the
// headline values as custom metrics; run `cmd/fmbench -all` for the full
// rendered tables.
package fmnet

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cmam"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xport"
)

// BenchmarkTable1FM1API exercises every Table 1 primitive once per op.
func BenchmarkTable1FM1API(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := bench.DefaultOptions(xport.GenFM1)
		if bw := bench.FMBandwidth(o, 16, 200); bw <= 0 {
			b.Fatal("no bandwidth")
		}
	}
}

// BenchmarkTable2FM2API exercises every Table 2 primitive once per op.
func BenchmarkTable2FM2API(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := bench.DefaultOptions(xport.GenFM2)
		if bw := bench.FMBandwidth(o, 16, 200); bw <= 0 {
			b.Fatal("no bandwidth")
		}
	}
}

// BenchmarkFig1LegacyEthernet regenerates Figure 1.
func BenchmarkFig1LegacyEthernet(b *testing.B) {
	var g, e bench.Curve
	for i := 0; i < b.N; i++ {
		_, curves := bench.Figure1()
		g, e = curves[0], curves[1]
	}
	b.ReportMetric(g.At(256), "1G_256B_MBps")
	b.ReportMetric(e.At(256), "100M_256B_MBps")
}

// BenchmarkFig2CMAMBreakdown regenerates Figure 2.
func BenchmarkFig2CMAMBreakdown(b *testing.B) {
	var fin cmam.Breakdown
	for i := 0; i < b.N; i++ {
		fin, _ = bench.Figure2()
	}
	b.ReportMetric(float64(fin.TotalCycles(cmam.Total)), "total_cycles")
	b.ReportMetric(float64(fin.GuaranteeCycles(cmam.Total)), "guarantee_cycles")
}

// BenchmarkFig3aStagedEngines regenerates Figure 3a.
func BenchmarkFig3aStagedEngines(b *testing.B) {
	var curves []bench.Curve
	for i := 0; i < b.N; i++ {
		_, curves = bench.Figure3a()
	}
	b.ReportMetric(curves[0].At(512), "link_only_512B_MBps")
	b.ReportMetric(curves[1].At(512), "with_bus_512B_MBps")
	b.ReportMetric(curves[2].At(512), "with_flowctl_512B_MBps")
}

// BenchmarkFig3bFM1Bandwidth regenerates Figure 3b (paper: 17.6 MB/s peak,
// N1/2 = 54 B, 14 us latency).
func BenchmarkFig3bFM1Bandwidth(b *testing.B) {
	var c bench.Curve
	for i := 0; i < b.N; i++ {
		c = bench.Figure3b()
	}
	b.ReportMetric(c.Peak(), "peak_MBps")
	b.ReportMetric(float64(c.NHalf()), "nhalf_B")
	b.ReportMetric(bench.FMLatency(bench.DefaultOptions(xport.GenFM1), 16, 50).Micros(), "latency_us")
}

// BenchmarkFig4MPIoverFM1 regenerates Figure 4 (paper: <=35% efficiency).
func BenchmarkFig4MPIoverFM1(b *testing.B) {
	var mpi, eff bench.Curve
	for i := 0; i < b.N; i++ {
		_, mpi, eff = bench.Figure4()
	}
	b.ReportMetric(mpi.Peak(), "mpi_peak_MBps")
	b.ReportMetric(eff.Peak(), "max_efficiency_pct")
	b.ReportMetric(eff.At(16), "efficiency_16B_pct")
}

// BenchmarkFig5FM2Bandwidth regenerates Figure 5 (paper: 77 MB/s peak,
// N1/2 < 256 B, 11 us latency).
func BenchmarkFig5FM2Bandwidth(b *testing.B) {
	var c bench.Curve
	for i := 0; i < b.N; i++ {
		c = bench.Figure5()
	}
	b.ReportMetric(c.Peak(), "peak_MBps")
	b.ReportMetric(float64(c.NHalf()), "nhalf_B")
	b.ReportMetric(bench.FMLatency(bench.DefaultOptions(xport.GenFM2), 16, 50).Micros(), "latency_us")
}

// BenchmarkFig6MPIoverFM2 regenerates Figure 6 (paper: 70 MB/s peak,
// 70->90% efficiency, 17 us latency).
func BenchmarkFig6MPIoverFM2(b *testing.B) {
	var mpi, eff bench.Curve
	for i := 0; i < b.N; i++ {
		_, mpi, eff = bench.Figure6()
	}
	b.ReportMetric(mpi.Peak(), "mpi_peak_MBps")
	b.ReportMetric(eff.At(16), "efficiency_16B_pct")
	b.ReportMetric(eff.Peak(), "max_efficiency_pct")
	b.ReportMetric(bench.MPILatency(bench.MPI2, 16, 50).Micros(), "latency_us")
}

// BenchmarkAblationNoGather prices gather/scatter (DESIGN.md ablation 1).
func BenchmarkAblationNoGather(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = bench.MPI2AblationBandwidth(mpifm.Options{}, 2048, 300)
		without = bench.MPI2AblationBandwidth(mpifm.Options{NoGather: true}, 2048, 300)
	}
	b.ReportMetric(with, "gather_MBps")
	b.ReportMetric(without, "no_gather_MBps")
}

// BenchmarkAblationNoRxFlowControl prices receiver pacing (ablation 3).
func BenchmarkAblationNoRxFlowControl(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = bench.MPI2AblationBandwidth(mpifm.Options{}, 2048, 300)
		without = bench.MPI2AblationBandwidth(mpifm.Options{Unpaced: true}, 2048, 300)
	}
	b.ReportMetric(with, "paced_MBps")
	b.ReportMetric(without, "unpaced_MBps")
}

// BenchmarkAblationPacketSize sweeps the FM 2.x MTU (ablation 4).
func BenchmarkAblationPacketSize(b *testing.B) {
	var sweep map[int]bench.Curve
	for i := 0; i < b.N; i++ {
		sweep = bench.PacketSizeSweep([]int{144, 552, 1552}, []int{2048})
	}
	b.ReportMetric(sweep[144].At(2048), "mtu128_MBps")
	b.ReportMetric(sweep[552].At(2048), "mtu536_MBps")
	b.ReportMetric(sweep[1552].At(2048), "mtu1536_MBps")
}

// BenchmarkAblationCreditWindow sweeps the flow-control window (ablation 5).
func BenchmarkAblationCreditWindow(b *testing.B) {
	var c bench.Curve
	for i := 0; i < b.N; i++ {
		c = bench.CreditWindowSweep([]int{1, 4, 32}, 2048)
	}
	b.ReportMetric(c.At(1), "window1_MBps")
	b.ReportMetric(c.At(4), "window4_MBps")
	b.ReportMetric(c.At(32), "window32_MBps")
}

// BenchmarkCollectivesAllreduce times an 8-rank 1 KiB Allreduce on both
// bindings: the collectives extension of the Figure 4/6 efficiency story.
func BenchmarkCollectivesAllreduce(b *testing.B) {
	var t1, t2 sim.Time
	for i := 0; i < b.N; i++ {
		t1 = bench.CollectiveTime(bench.MPI1, bench.CollAllreduce, mpifm.AlgoAuto, 8, 1024, 1)
		t2 = bench.CollectiveTime(bench.MPI2, bench.CollAllreduce, mpifm.AlgoAuto, 8, 1024, 1)
	}
	b.ReportMetric(t1.Micros(), "fm1_us")
	b.ReportMetric(t2.Micros(), "fm2_us")
}

// BenchmarkCollectivesAlltoall times the densest pattern at 16 ranks.
func BenchmarkCollectivesAlltoall(b *testing.B) {
	var t1, t2 sim.Time
	for i := 0; i < b.N; i++ {
		t1 = bench.CollectiveTime(bench.MPI1, bench.CollAlltoall, mpifm.AlgoAuto, 16, 512, 1)
		t2 = bench.CollectiveTime(bench.MPI2, bench.CollAlltoall, mpifm.AlgoAuto, 16, 512, 1)
	}
	b.ReportMetric(t1.Micros(), "fm1_us")
	b.ReportMetric(t2.Micros(), "fm2_us")
}

// BenchmarkCollectivesAllgatherAlgos prices ring vs recursive doubling.
func BenchmarkCollectivesAllgatherAlgos(b *testing.B) {
	var ring, recdbl sim.Time
	for i := 0; i < b.N; i++ {
		ring = bench.CollectiveTime(bench.MPI2, bench.CollAllgather, mpifm.AlgoRing, 16, 1024, 1)
		recdbl = bench.CollectiveTime(bench.MPI2, bench.CollAllgather, mpifm.AlgoRecursiveDoubling, 16, 1024, 1)
	}
	b.ReportMetric(ring.Micros(), "ring_us")
	b.ReportMetric(recdbl.Micros(), "recdbl_us")
}

// BenchmarkRealisticTraffic runs FM 2.x under the §2.1 message-size
// distributions: usable bandwidth on real traffic, not fixed-size sweeps.
func BenchmarkRealisticTraffic(b *testing.B) {
	for _, d := range trafficgen.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = realisticBandwidth(d, 2000)
			}
			b.ReportMetric(bw, "MBps")
			b.ReportMetric(d.Mean(), "mean_msg_B")
		})
	}
}

// realisticBandwidth streams n messages with sizes drawn from d over FM 2.x.
func realisticBandwidth(d trafficgen.Dist, n int) float64 {
	return bench.FMStream(bench.DefaultOptions(xport.GenFM2), d.NewSampler(1998).Sizes(n))
}

// BenchmarkSimKernelEvents measures raw kernel event throughput: the cost
// floor under every experiment (ns/op is per simulated event). Allocs/op
// must stay 0 — the exact pin lives in sim.TestKernelEventLoopZeroAlloc.
func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCollective512 is the scale smoke: one 512-rank allreduce on the
// fat tree per iteration. Rank counts past one crossbar's 256 one-byte-
// routable ports require a multi-stage fabric; this bench pins that the
// engine completes production-scale collectives in CI-tolerable wall time
// (the 1024-rank point runs in `fmbench -perf`, which writes the
// BENCH_*.json trajectory).
func BenchmarkCollective512(b *testing.B) {
	var t2 sim.Time
	for i := 0; i < b.N; i++ {
		t2 = bench.CollectiveTimeOn(bench.MPI2, bench.FabFatTree, bench.CollAllreduce,
			mpifm.AlgoAuto, 512, 1024, 1)
	}
	b.ReportMetric(t2.Micros(), "fm2_us")
}

// BenchmarkSimChanHandoff measures virtual-channel handoff cost.
func BenchmarkSimChanHandoff(b *testing.B) {
	k := sim.NewKernel()
	ch := sim.NewChan[int](k, 1)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Send(p, i)
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricPacketForwarding measures the netsim switch path.
func BenchmarkFabricPacketForwarding(b *testing.B) {
	k := sim.NewKernel()
	net := netsim.Shape{Topology: netsim.SingleSwitch, Nodes: 2}.Build(k, netsim.DefaultMyrinet(), 300*sim.Nanosecond)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			net.Iface(0).Send(p, &netsim.Packet{Dst: 1, Payload: make([]byte, 128)})
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			net.Iface(1).In.Recv(p)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
