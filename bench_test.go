// Benchmark harness: what only a Go benchmark reports. The paper's figures,
// tables, ablations and collective sweeps are rendered by `cmd/fmbench -all`
// and held byte for byte to cmd/fmbench/testdata/all.golden; what is left
// here is the §2.1 realistic-traffic size mixes (reported nowhere else) and
// three substrate microbenchmarks whose ns/op is the number of interest.
package fmnet

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xport"
)

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
