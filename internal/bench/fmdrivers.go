package bench

import (
	"repro/internal/cluster"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/sim"
	"repro/internal/xport"
)

// fmNode is one node's native FM endpoint behind the three operations the
// two generations spell differently; the raw-FM drivers below are written
// once against it. Everything runs on handler 1.
type fmNode struct {
	send    func(p *sim.Proc, dst int, msg []byte) error
	extract func(p *sim.Proc)
	// deliver installs the measurement handler: done runs once per arrived
	// message. FM 2.x first drains the message through buf, charging the
	// single FM-to-buffer copy; FM 1.x hands its handler a finished buffer.
	deliver func(buf []byte, done func(p *sim.Proc))
}

// fmPair builds two nodes of machine m on one switch and attaches its
// generation's engine natively (no xport wrapper).
func fmPair(m xport.Machine) (*cluster.Platform, []fmNode) {
	pl := platform(m, 2, FabSingle)
	nodes := make([]fmNode, pl.Nodes())
	if m.Gen == xport.GenFM1 {
		for i, ep := range fm1.Attach(pl, m.FM1) {
			nodes[i] = fmNode{
				send:    func(p *sim.Proc, dst int, msg []byte) error { return ep.Send(p, dst, 1, msg) },
				extract: func(p *sim.Proc) { ep.Extract(p) },
				deliver: func(_ []byte, done func(p *sim.Proc)) {
					ep.Register(1, func(p *sim.Proc, src int, data []byte) { done(p) })
				},
			}
		}
		return pl, nodes
	}
	for i, ep := range fm2.Attach(pl, m.FM2) {
		nodes[i] = fmNode{
			send:    func(p *sim.Proc, dst int, msg []byte) error { return ep.Send(p, dst, 1, msg) },
			extract: func(p *sim.Proc) { ep.Extract(p, 0) },
			deliver: func(buf []byte, done func(p *sim.Proc)) {
				ep.Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
					for s.Remaining() > 0 {
						s.Receive(p, buf[:min(len(buf), s.Remaining())])
					}
					done(p)
				})
			},
		}
	}
	return pl, nodes
}

// uniform is the size schedule of msgs messages of one size.
func uniform(size, msgs int) []int {
	sizes := make([]int, msgs)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// FMStream measures raw FM streaming bandwidth node0 -> node1 over an
// arbitrary size schedule (the realistic-traffic benches) and reports
// delivered MB/s: node 0 sends one message per entry of sizes, node 1 polls
// every 500 ns until the last one is delivered, and the clock runs from the
// first send to the last delivery.
func FMStream(m xport.Machine, sizes []int) float64 {
	pl, nodes := fmPair(m)
	largest := 0
	var total int64
	for _, s := range sizes {
		largest = max(largest, s)
		total += int64(s)
	}
	var st stamp
	recvd := 0
	nodes[1].deliver(make([]byte, largest), func(p *sim.Proc) {
		recvd++
		if recvd == len(sizes) {
			st.end = p.Now()
		}
	})
	pl.K.Spawn("sender", func(p *sim.Proc) {
		st.start = p.Now()
		msg := make([]byte, largest)
		for _, size := range sizes {
			if err := nodes[0].send(p, 1, msg[:size]); err != nil {
				panic(err)
			}
		}
	}).ActsFor(0)
	pl.K.Spawn("receiver", func(p *sim.Proc) {
		for recvd < len(sizes) {
			nodes[1].extract(p)
			if recvd < len(sizes) {
				p.Delay(500 * sim.Nanosecond)
			}
		}
	}).ActsFor(1)
	run(pl, "%s stream of %d messages", m.Gen, len(sizes))
	return sim.MBps(total, st.end-st.start)
}

// FMBandwidth is FMStream at one message size: the Figure 3 (FM 1.x) and
// Figure 5 (FM 2.x) measurement.
func FMBandwidth(m xport.Machine, size, msgs int) float64 { return FMStream(m, uniform(size, msgs)) }

// sweep samples bw at each size.
func sweep(sizes []int, bw func(size int) float64) Curve {
	c := Curve{}
	for _, s := range sizes {
		c = append(c, Point{s, bw(s)})
	}
	return c
}

// FMCurve sweeps FMBandwidth over sizes.
func FMCurve(m xport.Machine, sizes []int) Curve {
	return sweep(sizes, func(s int) float64 { return FMBandwidth(m, s, MsgsFor(s)) })
}

// FMLatency measures raw FM one-way short-message latency by ping-pong.
func FMLatency(m xport.Machine, size, iters int) sim.Time {
	pl, nodes := fmPair(m)
	var got [2]int // messages delivered to node 0 (pongs) and node 1 (pings)
	scratch := make([]byte, size)
	for i, n := range nodes {
		n.deliver(scratch, func(*sim.Proc) { got[i]++ })
	}
	var rtt sim.Time
	pl.K.Spawn("node0", func(p *sim.Proc) {
		msg := make([]byte, size)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := nodes[0].send(p, 1, msg); err != nil {
				panic(err)
			}
			for got[0] <= i {
				nodes[0].extract(p)
			}
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	}).ActsFor(0)
	pl.K.Spawn("node1", func(p *sim.Proc) {
		msg := make([]byte, size)
		for i := 0; i < iters; i++ {
			for got[1] <= i {
				nodes[1].extract(p)
			}
			if err := nodes[1].send(p, 0, msg); err != nil {
				panic(err)
			}
		}
	}).ActsFor(1)
	run(pl, "%s latency", m.Gen)
	return rtt / 2
}
