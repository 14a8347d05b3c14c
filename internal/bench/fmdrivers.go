package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/xport"
)

// FM1Options configures the staged FM 1.x engine for Figure 3.
type FM1Options struct {
	Profile  hostmodel.Profile
	FM       fm1.Config
	NIC      lanai.Config
	Topology cluster.Topology
}

// DefaultFM1Options is the full FM 1.x engine on the Sparc-era machine.
func DefaultFM1Options() FM1Options {
	return FM1Options{
		Profile:  xport.GenFM1.Profile(),
		NIC:      lanai.DefaultConfig(),
		Topology: cluster.SingleSwitch,
	}
}

func (o FM1Options) platform(k *sim.Kernel) *cluster.Platform {
	cfg := cluster.DefaultConfig()
	cfg.Profile = o.Profile
	cfg.NIC = o.NIC
	cfg.Topology = o.Topology
	return cluster.New(k, cfg)
}

// FM1Bandwidth measures streaming bandwidth node0 -> node1 at one message
// size: the Figure 3 measurement.
func FM1Bandwidth(o FM1Options, size, msgs int) float64 {
	k := sim.NewKernel()
	pl := o.platform(k)
	eps := fm1.Attach(pl, o.FM)
	var start, end sim.Time
	recvd := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {
		recvd++
		if recvd == msgs {
			end = p.Now()
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for recvd < msgs {
			eps[1].Extract(p)
			if recvd < msgs {
				p.Delay(500 * sim.Nanosecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: fm1 bandwidth size %d: %v", size, err))
	}
	return Elapsed(int64(size)*int64(msgs), end-start)
}

// FM1Curve sweeps FM1Bandwidth over sizes.
func FM1Curve(o FM1Options, sizes []int) Curve {
	c := Curve{}
	for _, s := range sizes {
		c = append(c, Point{s, FM1Bandwidth(o, s, MsgsFor(s))})
	}
	return c
}

// FM1Latency measures one-way short-message latency by ping-pong.
func FM1Latency(o FM1Options, size, iters int) sim.Time {
	k := sim.NewKernel()
	pl := o.platform(k)
	eps := fm1.Attach(pl, o.FM)
	var rtt sim.Time
	pong := 0
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) { pong++ })
	ping := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) { ping++ })
	k.Spawn("node0", func(p *sim.Proc) {
		msg := make([]byte, size)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
			for pong <= i {
				eps[0].Extract(p)
			}
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	})
	k.Spawn("node1", func(p *sim.Proc) {
		msg := make([]byte, size)
		for i := 0; i < iters; i++ {
			for ping <= i {
				eps[1].Extract(p)
			}
			if err := eps[1].Send(p, 0, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: fm1 latency: %v", err))
	}
	return rtt / 2
}

// FM2Options configures the FM 2.x engine.
type FM2Options struct {
	Profile  hostmodel.Profile
	FM       fm2.Config
	NIC      lanai.Config
	Topology cluster.Topology
	// ExtractLimit bounds each Extract call (0 = unlimited): the receiver
	// flow-control knob.
	ExtractLimit int
}

// DefaultFM2Options is the full FM 2.x engine on the PPro-era machine.
func DefaultFM2Options() FM2Options {
	return FM2Options{
		Profile:  xport.GenFM2.Profile(),
		NIC:      lanai.DefaultConfig(),
		Topology: cluster.SingleSwitch,
	}
}

func (o FM2Options) platform(k *sim.Kernel) *cluster.Platform {
	cfg := cluster.DefaultConfig()
	cfg.Profile = o.Profile
	cfg.NIC = o.NIC
	cfg.Topology = o.Topology
	return cluster.New(k, cfg)
}

// FM2Bandwidth measures streaming bandwidth node0 -> node1 at one message
// size: the Figure 5 measurement. The receiving handler drains each message
// into a reused buffer, charging the single FM-to-buffer copy.
func FM2Bandwidth(o FM2Options, size, msgs int) float64 {
	k := sim.NewKernel()
	pl := o.platform(k)
	eps := fm2.Attach(pl, o.FM)
	var start, end sim.Time
	recvd := 0
	buf := make([]byte, size)
	eps[1].Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
		for s.Remaining() > 0 {
			s.Receive(p, buf)
		}
		recvd++
		if recvd == msgs {
			end = p.Now()
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for recvd < msgs {
			eps[1].Extract(p, o.ExtractLimit)
			if recvd < msgs {
				p.Delay(500 * sim.Nanosecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: fm2 bandwidth size %d: %v", size, err))
	}
	return Elapsed(int64(size)*int64(msgs), end-start)
}

// FM2Curve sweeps FM2Bandwidth over sizes.
func FM2Curve(o FM2Options, sizes []int) Curve {
	c := Curve{}
	for _, s := range sizes {
		c = append(c, Point{s, FM2Bandwidth(o, s, MsgsFor(s))})
	}
	return c
}

// FM2Latency measures one-way short-message latency by ping-pong.
func FM2Latency(o FM2Options, size, iters int) sim.Time {
	k := sim.NewKernel()
	pl := o.platform(k)
	eps := fm2.Attach(pl, o.FM)
	var rtt sim.Time
	pong, ping := 0, 0
	scratch := make([]byte, size)
	eps[0].Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
		s.Receive(p, scratch)
		pong++
	})
	eps[1].Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
		s.Receive(p, scratch)
		ping++
	})
	k.Spawn("node0", func(p *sim.Proc) {
		msg := make([]byte, size)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
			for pong <= i {
				eps[0].ExtractAll(p)
			}
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	})
	k.Spawn("node1", func(p *sim.Proc) {
		msg := make([]byte, size)
		for i := 0; i < iters; i++ {
			for ping <= i {
				eps[1].ExtractAll(p)
			}
			if err := eps[1].Send(p, 0, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: fm2 latency: %v", err))
	}
	return rtt / 2
}

// FM2MixedBandwidth streams messages whose sizes follow an arbitrary
// schedule (realistic-traffic benches) and reports delivered MB/s.
func FM2MixedBandwidth(o FM2Options, sizes []int, totalBytes int) float64 {
	k := sim.NewKernel()
	pl := o.platform(k)
	eps := fm2.Attach(pl, o.FM)
	var start, end sim.Time
	recvd := 0
	buf := make([]byte, 64*1024)
	eps[1].Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
		for s.Remaining() > 0 {
			s.Receive(p, buf[:min(len(buf), s.Remaining())])
		}
		recvd++
		if recvd == len(sizes) {
			end = p.Now()
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		start = p.Now()
		for _, sz := range sizes {
			if err := eps[0].Send(p, 1, 1, buf[:sz]); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for recvd < len(sizes) {
			eps[1].Extract(p, o.ExtractLimit)
			if recvd < len(sizes) {
				p.Delay(500 * sim.Nanosecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: fm2 mixed bandwidth: %v", err))
	}
	return Elapsed(int64(totalBytes), end-start)
}
