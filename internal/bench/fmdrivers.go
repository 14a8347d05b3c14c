package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/sim"
	"repro/internal/xport"
)

// fmNode is one node's FM-level endpoint behind the three operations native
// FM 1.x, native FM 2.x and the bare xport window spell differently; the raw
// stream and the raw ping-pong are written once against it.
type fmNode struct {
	send    func(p *sim.Proc, dst int, msg []byte) error
	extract func(p *sim.Proc)
	// deliver installs the measurement handler: done runs once per arrived
	// message. FM 2.x and the window first drain the message through buf,
	// charging the single FM-to-buffer copy; FM 1.x hands its handler a
	// finished buffer.
	deliver func(buf []byte, done func(p *sim.Proc))
}

// fm1Node is native FM 1.x on handler 1.
func fm1Node(ep *fm1.Endpoint) fmNode {
	return fmNode{
		send:    func(p *sim.Proc, dst int, msg []byte) error { return ep.Send(p, dst, 1, msg) },
		extract: func(p *sim.Proc) { ep.Extract(p) },
		deliver: func(_ []byte, done func(p *sim.Proc)) {
			ep.Register(1, func(p *sim.Proc, src int, data []byte) { done(p) })
		},
	}
}

// fm2Node is native FM 2.x on handler 1.
func fm2Node(ep *fm2.Endpoint) fmNode {
	return fmNode{
		send:    func(p *sim.Proc, dst int, msg []byte) error { return ep.Send(p, dst, 1, msg) },
		extract: func(p *sim.Proc) { ep.Extract(p, 0) },
		deliver: func(buf []byte, done func(p *sim.Proc)) {
			ep.Register(1, func(p *sim.Proc, s *fm2.RecvStream) { drain(p, s, buf); done(p) })
		},
	}
}

// matrixHandlerID is the handler slot the bare-window baseline claims.
const matrixHandlerID = 9

// windowNode is a bare service window (no upper layer) on the handler slot
// the window baseline claims, over whichever generation its endpoint binds.
func windowNode(sp *xport.HandlerSpace) fmNode {
	return fmNode{
		send: func(p *sim.Proc, dst int, msg []byte) error {
			return xport.SendGather(p, sp, dst, matrixHandlerID, msg)
		},
		extract: func(p *sim.Proc) { sp.Extract(p, 0) },
		deliver: func(buf []byte, done func(p *sim.Proc)) {
			sp.Register(matrixHandlerID, func(p *sim.Proc, s xport.RecvStream) { drain(p, s, buf); done(p) })
		},
	}
}

// windowNodes registers the bare window on every endpoint.
func windowNodes(eps []*xport.Endpoint) []fmNode {
	nodes := make([]fmNode, len(eps))
	for i, sp := range xport.Spaces(eps, "xport") {
		nodes[i] = windowNode(sp)
	}
	return nodes
}

// drain consumes the rest of a message through buf.
func drain(p *sim.Proc, s xport.RecvStream, buf []byte) {
	for s.Remaining() > 0 {
		s.Receive(p, buf[:min(len(buf), s.Remaining())])
	}
}

// fmPair builds two nodes of machine m on one switch and attaches its
// generation's engine natively (no xport wrapper).
func fmPair(m xport.Machine) (*cluster.Platform, []fmNode) {
	pl := platform(m, 2, FabSingle)
	var nodes []fmNode
	if m.Gen == xport.GenFM1 {
		for _, ep := range fm1.Attach(pl, fm1.Config{}) {
			nodes = append(nodes, fm1Node(ep))
		}
	} else {
		for _, ep := range fm2.Attach(pl, fm2.Config{}) {
			nodes = append(nodes, fm2Node(ep))
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

// streamFlow is the flow skeleton's raw stream: the source sends one
// message per entry of sizes, the destination polls every 500 ns until the
// last one is delivered, and the flow's clock runs from the first send to
// the last delivery.
func streamFlow(nodes []fmNode, sizes []int) func(flow) [2]flowProc {
	largest := 0
	for _, s := range sizes {
		largest = max(largest, s)
	}
	return func(fl flow) [2]flowProc {
		recvd := 0
		nodes[fl.dst].deliver(make([]byte, largest), func(p *sim.Proc) {
			if recvd++; recvd == len(sizes) {
				fl.end = p.Now()
			}
		})
		return [2]flowProc{{"send", fl.src, func(p *sim.Proc) {
			fl.start = p.Now()
			msg := make([]byte, largest)
			for _, size := range sizes {
				if err := nodes[fl.src].send(p, fl.dst, msg[:size]); err != nil {
					panic(err)
				}
			}
		}}, {"recv", fl.dst, func(p *sim.Proc) {
			for recvd < len(sizes) {
				nodes[fl.dst].extract(p)
				if recvd < len(sizes) {
					p.Delay(500 * sim.Nanosecond)
				}
			}
		}}}
	}
}

// FMStream measures raw FM streaming bandwidth node0 -> node1 over an
// arbitrary size schedule (the realistic-traffic benches) and reports
// delivered MB/s: streamFlow on native FM.
func FMStream(m xport.Machine, sizes []int) float64 {
	pl, nodes := fmPair(m)
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	return flowBandwidth(pl, fmt.Sprintf("%s stream", m.Gen), [][2]int{{0, 1}}, streamFlow(nodes, sizes), total)
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

// pinger is one side of a ping-pong: send one message to the other side,
// and wait for the next one from it.
type pinger struct {
	send, recv func(p *sim.Proc)
}

// pingPong is the one latency driver: node 0 sends and then waits for the
// reply, node 1 waits and then replies, iters times; the result is half the
// mean round trip as node 0 clocks it.
func pingPong(pl *cluster.Platform, what string, ends [2]pinger, iters int) sim.Time {
	var rtt sim.Time
	pl.K.Spawn("ping", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			ends[0].send(p)
			ends[0].recv(p)
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	}).ActsFor(0)
	pl.K.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			ends[1].recv(p)
			ends[1].send(p)
		}
	}).ActsFor(1)
	run(pl, "%s latency", what)
	return rtt / 2
}

// FMLatency measures raw FM one-way latency by ping-pong: each side polls
// until the next message has been delivered to it.
func FMLatency(m xport.Machine, size, iters int) sim.Time {
	pl, nodes := fmPair(m)
	var ends [2]pinger
	for i, n := range nodes {
		got, waited := 0, 0
		n.deliver(make([]byte, size), func(*sim.Proc) { got++ })
		msg := make([]byte, size)
		ends[i] = pinger{
			send: func(p *sim.Proc) {
				if err := n.send(p, 1-i, msg); err != nil {
					panic(err)
				}
			},
			recv: func(p *sim.Proc) {
				for waited++; got < waited; {
					n.extract(p)
				}
			},
		}
	}
	return pingPong(pl, m.Gen.String(), ends, iters)
}
