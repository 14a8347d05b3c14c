package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xport"
)

// The layer ladder. One traffic pattern is replayed at successively higher
// rungs of the stack, each rung entered through that layer's public send and
// receive calls, on the same topology with the same message count and size.
// A rung's host time therefore holds the cost of its own layer plus
// everything beneath it, and a layer's SELF cost is its rung minus the rung
// below (sim, rung 0, is its own self cost). Nothing inside the simulator is
// instrumented: the whole measurement is timing and counting around public
// calls from the benchmark's own files.
//
// Below FM there are no messages, only frames, so the netsim and lanai rungs
// cut each message into exactly the frames FM would (same count, same
// sizes); the sim rung moves the same frames over bare sim.Chans with the
// wire time as a Delay. The difference fm - lanai is then FM's own work
// (headers, credits, streams), not the packet count.

// step is one move of a node's schedule within a round.
type step struct {
	send bool
	peer int
}

// pattern is a traffic pattern: every node repeats its round schedule.
type pattern struct {
	name   string
	nodes  int
	rounds int
	steps  func(node int) []step
	// pollGap is the pause after an empty poll while receiving (0 = poll
	// back to back, the latency-bound case).
	pollGap sim.Time
}

// msgsPerRound counts the messages all nodes send in one round.
func (pt pattern) msgsPerRound() int {
	n := 0
	for node := 0; node < pt.nodes; node++ {
		for _, s := range pt.steps(node) {
			if s.send {
				n++
			}
		}
	}
	return n
}

func pairStream(rounds int) pattern {
	return pattern{name: "pair-stream", nodes: 2, rounds: rounds, pollGap: pollGap,
		steps: func(node int) []step { return []step{{send: node == 0, peer: 1 - node}} }}
}

func pairPingpong(rounds int) pattern {
	return pattern{name: "pair-pingpong", nodes: 2, rounds: rounds,
		steps: func(node int) []step {
			if node == 0 {
				return []step{{true, 1}, {false, 1}}
			}
			return []step{{false, 0}, {true, 0}}
		}}
}

// xorExchange is the schedule recursive-doubling Allreduce itself uses:
// rank r exchanges with r XOR 2^k for k = 0..log2(n)-1, the lower rank of a
// pair sending first.
func xorExchange(nodes, rounds int) pattern {
	return pattern{name: "xor-exchange", nodes: nodes, rounds: rounds,
		steps: func(node int) []step {
			var ss []step
			for mask := 1; mask < nodes; mask <<= 1 {
				peer := node ^ mask
				if node < peer {
					ss = append(ss, step{true, peer}, step{false, peer})
				} else {
					ss = append(ss, step{false, peer}, step{true, peer})
				}
			}
			return ss
		}}
}

// port is a rung: how one layer moves one message, through its public calls.
type port interface {
	kernel() *sim.Kernel
	// send hands message seq of the (node -> dst) flow to the layer.
	send(p *sim.Proc, node, dst int, msg []byte)
	// recv services node's receive path once while it waits for src, through
	// the layer's own receive call: a blocking Recv where the layer has one
	// (sim, netsim), one poll where polling is the interface (lanai, FM,
	// xport), charged as the layer charges an empty poll. It reports whether
	// a frame or message arrived during the call.
	recv(p *sim.Proc, node, src int) bool
	// arrived counts messages from src that have been delivered to node and
	// verified.
	arrived(node, src int) int
	// finish runs after the traffic (settling, layer checks).
	finish(p *sim.Proc, node int)
	// problems lists failed checks once the kernel has run.
	problems() []string
}

// flows tracks per-flow sequence numbers and verifies deliveries: message i
// of flow (src -> dst) is the seeded payload with src, dst and i stamped in,
// so a misrouted, reordered or stale delivery fails like a corrupted one.
type flows struct {
	base []byte
	got  [][]int // [node][src]
	errs []string
}

func newFlows(nodes int, base []byte) *flows {
	f := &flows{base: base, got: make([][]int, nodes)}
	for i := range f.got {
		f.got[i] = make([]int, nodes)
	}
	return f
}

func flowStamp(buf, base []byte, src, dst, seq int) {
	copy(buf, base)
	binary.LittleEndian.PutUint16(buf[0:], uint16(src))
	binary.LittleEndian.PutUint16(buf[2:], uint16(dst))
	binary.LittleEndian.PutUint32(buf[4:], uint32(seq))
}

// deliver verifies one whole message that arrived at node from src.
func (f *flows) deliver(node, src int, data, scratch []byte) {
	flowStamp(scratch, f.base, src, node, f.got[node][src])
	if !bytes.Equal(data, scratch) {
		if len(f.errs) < 4 {
			f.errs = append(f.errs, fmt.Sprintf("message %d of flow %d->%d arrived altered", f.got[node][src], src, node))
		}
	}
	f.got[node][src]++
}

// exchangeOut is what one run of a pattern over a port measured.
type exchangeOut struct {
	msgs   int64
	end    sim.Time   // when the last node finished its traffic
	round0 []sim.Time // node 0's duration of each round
	polls  int64      // receive-path calls, and those during which something arrived
	useful int64
	// idleEvents counts the kernel events the driver's own pacing Delays
	// cost: the benchmark's work, not a layer's, so a rung's event count
	// leaves them out.
	idleEvents uint64
}

// exchange spawns the pattern's Procs on the port's kernel; running that
// kernel fills in the result.
func exchange(pt pattern, pr port, size int, base []byte, rec *recorder, layer string) *exchangeOut {
	sendName, pollName := "send."+strconv.Itoa(size), "recv."+strconv.Itoa(size)
	out := &exchangeOut{msgs: int64(pt.msgsPerRound()) * int64(pt.rounds), round0: make([]sim.Time, 0, pt.rounds)}
	k := pr.kernel()
	sent := make([][]int, pt.nodes) // [node][dst] next sequence number
	for node := 0; node < pt.nodes; node++ {
		sent[node] = make([]int, pt.nodes)
		steps := pt.steps(node)
		k.Spawn(fmt.Sprintf("node%d", node), func(p *sim.Proc) {
			msg := make([]byte, size)
			want := make([]int, pt.nodes) // messages consumed per source
			for r := 0; r < pt.rounds; r++ {
				t0 := p.Now()
				for _, s := range steps {
					if s.send {
						flowStamp(msg, base, node, s.peer, sent[node][s.peer])
						sent[node][s.peer]++
						sp := rec.begin(p, node, 0, layer, sendName, int64(r))
						pr.send(p, node, s.peer, msg)
						rec.end(p, sp)
						continue
					}
					want[s.peer]++
					for pr.arrived(node, s.peer) < want[s.peer] {
						sp := rec.begin(p, node, 0, layer, pollName, int64(r))
						hit := pr.recv(p, node, s.peer)
						rec.end(p, sp)
						out.polls++
						if hit {
							out.useful++
						}
						// The cadence internal/bench calibrated the paper's
						// stream figures with: a pause after every poll that
						// leaves the receiver still waiting.
						if pt.pollGap > 0 && pr.arrived(node, s.peer) < want[s.peer] {
							p.Delay(pt.pollGap)
							out.idleEvents++
						}
					}
				}
				if node == 0 {
					out.round0 = append(out.round0, p.Now()-t0)
				}
			}
			out.end = max(out.end, p.Now())
			pr.finish(p, node)
		})
	}
	return out
}

// frameSizes cuts a size-byte message into the frames an FM generation would:
// PacketMTU-byte frames of header + payload.
func frameSizes(prof hostmodel.Profile, header, size int) []int {
	var fs []int
	for per := prof.PacketMTU - header; size > 0; size -= per {
		fs = append(fs, header+min(per, size))
	}
	return fs
}

func fmHeader(gen xport.Gen) int {
	if gen == xport.GenFM1 {
		return 12
	}
	return 16
}

// framePort is the part the three sub-FM rungs share: a message is a run of
// frames, reassembled per source and verified when the last one lands.
type framePort struct {
	k      *sim.Kernel
	fl     *flows
	header int
	frames []int    // frame sizes of one message
	asm    [][]byte // [node*nodes+src] bytes of the message arriving from src
	nodes  int
	tmp    []byte
}

func newFramePort(k *sim.Kernel, nodes int, prof hostmodel.Profile, gen xport.Gen, size int, base []byte) framePort {
	return framePort{k: k, fl: newFlows(nodes, base), header: fmHeader(gen),
		frames: frameSizes(prof, fmHeader(gen), size), asm: make([][]byte, nodes*nodes), nodes: nodes, tmp: make([]byte, size)}
}

func (fp *framePort) kernel() *sim.Kernel       { return fp.k }
func (fp *framePort) arrived(node, src int) int { return fp.fl.got[node][src] }
func (fp *framePort) problems() []string        { return fp.fl.errs }
func (fp *framePort) finish(*sim.Proc, int)     {}
func (fp *framePort) payloadOf(f int, msg []byte) (lo, hi int) {
	per := fp.frames[0] - fp.header
	lo = f * per
	return lo, min(lo+per, len(msg))
}

// land appends one frame's payload to the message arriving at node from src.
func (fp *framePort) land(node, src int, payload []byte) {
	i := node*fp.nodes + src
	fp.asm[i] = append(fp.asm[i], payload...)
	if len(fp.asm[i]) >= len(fp.tmp) {
		fp.fl.deliver(node, src, fp.asm[i], fp.tmp)
		fp.asm[i] = fp.asm[i][:0]
	}
}

// simPort is rung 0: frames over bare sim.Chans, wire time as a Delay.
type simPort struct {
	framePort
	link  netsim.LinkConfig
	chans map[[2]int]*sim.Chan[[]byte] // one per directed flow
	free  [][]byte                     // recycled frame buffers
}

func newSimPort(pt pattern, prof hostmodel.Profile, gen xport.Gen, size int, base []byte) *simPort {
	sp := &simPort{framePort: newFramePort(sim.NewKernel(), pt.nodes, prof, gen, size, base),
		link: prof.Link, chans: map[[2]int]*sim.Chan[[]byte]{}}
	for node := 0; node < pt.nodes; node++ {
		for _, s := range pt.steps(node) {
			if s.send {
				key := [2]int{node, s.peer}
				if sp.chans[key] == nil {
					sp.chans[key] = sim.NewChan[[]byte](sp.k, prof.Link.Slots)
				}
			}
		}
	}
	return sp
}

func (sp *simPort) send(p *sim.Proc, node, dst int, msg []byte) {
	ch := sp.chans[[2]int{node, dst}]
	for f, n := range sp.frames {
		lo, hi := sp.payloadOf(f, msg)
		var frame []byte
		if last := len(sp.free) - 1; last >= 0 {
			frame, sp.free = sp.free[last][:0], sp.free[:last]
		} else {
			frame = make([]byte, 0, sp.frames[0])
		}
		frame = append(frame, msg[lo:hi]...)
		p.Delay(sim.BytesTime(n+sp.link.FrameOverhead, sp.link.BandwidthMBps) + sp.link.PropDelay)
		ch.Send(p, frame)
	}
}

func (sp *simPort) recv(p *sim.Proc, node, src int) bool {
	frame := sp.chans[[2]int{src, node}].Recv(p)
	sp.land(node, src, frame)
	sp.free = append(sp.free, frame)
	return true
}

// netsimPort is the fabric rung: FramePool.Get + Iface.Send on the way in,
// Iface.In.TryRecv + Release on the way out.
type netsimPort struct {
	framePort
	net   *netsim.Network
	pools []*netsim.FramePool
}

func newNetsimPort(net *netsim.Network, prof hostmodel.Profile, gen xport.Gen, size int, base []byte) *netsimPort {
	np := &netsimPort{framePort: newFramePort(net.K, net.Nodes(), prof, gen, size, base), net: net}
	for i := 0; i < net.Nodes(); i++ {
		np.pools = append(np.pools, netsim.NewFramePool(prof.PacketMTU, 0))
	}
	return np
}

// fill draws a frame from node's pool and writes frame f of msg into it.
func (fp *framePort) fill(pool *netsim.FramePool, f int, msg []byte) *netsim.Packet {
	lo, hi := fp.payloadOf(f, msg)
	pkt := pool.Get(fp.header + hi - lo)
	copy(pkt.Payload[fp.header:], msg[lo:hi])
	return pkt
}

func (np *netsimPort) send(p *sim.Proc, node, dst int, msg []byte) {
	for f := range np.frames {
		pkt := np.fill(np.pools[node], f, msg)
		pkt.Dst = dst
		np.net.Iface(node).Send(p, pkt)
	}
}

func (np *netsimPort) recv(p *sim.Proc, node, src int) bool {
	pkt := np.net.Iface(node).In.Recv(p)
	np.land(node, pkt.Src, pkt.Payload[np.header:])
	pkt.Release()
	return true
}

func (np *netsimPort) problems() []string {
	errs := np.fl.errs
	for i, pool := range np.pools {
		if st := pool.Stats(); st.Gets != st.Releases {
			errs = append(errs, fmt.Sprintf("netsim rung: node %d's pool handed out %d frames and got %d back", i, st.Gets, st.Releases))
		}
	}
	return errs
}

// lanaiPort is the NIC rung: NIC.HostSendPacket in, NIC.Poll out.
type lanaiPort struct {
	netsimPort
	nics []*lanai.NIC
}

func newLanaiPort(pl *cluster.Platform, gen xport.Gen, size int, base []byte) *lanaiPort {
	return &lanaiPort{netsimPort: *newNetsimPort(pl.Net, pl.Cfg.Profile, gen, size, base), nics: pl.NICs}
}

func (lp *lanaiPort) send(p *sim.Proc, node, dst int, msg []byte) {
	for f := range lp.frames {
		lp.nics[node].HostSendPacket(p, lp.fill(lp.pools[node], f, msg), dst, false)
	}
}

func (lp *lanaiPort) recv(p *sim.Proc, node, src int) bool {
	hit := false
	for {
		pkt, ok := lp.nics[node].Poll()
		if !ok {
			if !hit {
				p.Delay(lp.nics[node].H.P.PollEmpty) // what FM charges an empty poll
			}
			return hit
		}
		lp.land(node, pkt.Src, pkt.Payload[lp.header:])
		pkt.Release()
		hit = true
	}
}

// stackPort is what the FM and xport rungs share: a full stack, handlers
// that verify on delivery, settling and the quiesce check.
type stackPort struct {
	st  *stack
	fl  *flows
	tmp []byte
	bad []string
}

func (sp *stackPort) kernel() *sim.Kernel       { return sp.st.k }
func (sp *stackPort) arrived(node, src int) int { return sp.fl.got[node][src] }
func (sp *stackPort) problems() []string        { return append(sp.fl.errs, sp.bad...) }

type fm2Port struct{ stackPort }

func newFM2Port(st *stack, size int, base []byte) *fm2Port {
	fp := &fm2Port{stackPort{st: st, fl: newFlows(len(st.eps), base), tmp: make([]byte, size)}}
	for node, ep := range st.fm2 {
		buf := make([]byte, size)
		ep.Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
			n := 0
			for s.Remaining() > 0 && n < len(buf) {
				n += s.Receive(p, buf[n:])
			}
			fp.fl.deliver(node, s.Src(), buf[:n], fp.tmp)
		})
	}
	return fp
}

func (fp *fm2Port) send(p *sim.Proc, node, dst int, msg []byte) {
	if err := fp.st.fm2[node].Send(p, dst, 1, msg); err != nil {
		fp.bad = append(fp.bad, err.Error())
	}
}

func (fp *fm2Port) recv(p *sim.Proc, node, src int) bool {
	ep := fp.st.fm2[node]
	before := ep.Stats().PacketsRecvd
	ep.Extract(p, 0)
	return ep.Stats().PacketsRecvd > before
}

func (fp *fm2Port) finish(p *sim.Proc, node int) {
	settleFixed(p, func() { fp.st.fm2[node].Extract(p, 0) })
}

type fm1Port struct{ stackPort }

func newFM1Port(st *stack, size int, base []byte) *fm1Port {
	fp := &fm1Port{stackPort{st: st, fl: newFlows(len(st.eps), base), tmp: make([]byte, size)}}
	for node, ep := range st.fm1 {
		ep.Register(1, func(p *sim.Proc, src int, data []byte) { fp.fl.deliver(node, src, data, fp.tmp) })
	}
	return fp
}

func (fp *fm1Port) send(p *sim.Proc, node, dst int, msg []byte) {
	if err := fp.st.fm1[node].Send(p, dst, 1, msg); err != nil {
		fp.bad = append(fp.bad, err.Error())
	}
}

func (fp *fm1Port) recv(p *sim.Proc, node, src int) bool {
	ep := fp.st.fm1[node]
	before := ep.Stats().PacketsRecvd
	ep.Extract(p)
	return ep.Stats().PacketsRecvd > before
}

func (fp *fm1Port) finish(p *sim.Proc, node int) {
	settleFixed(p, func() { fp.st.fm1[node].Extract(p) })
}

// xportPort enters through a service's HandlerSpace: BeginMessage /
// SendPiece / EndMessage in, HandlerSpace.Extract out.
type xportPort struct {
	stackPort
	spaces []*xport.HandlerSpace
}

func newXportPort(st *stack, size int, base []byte) *xportPort {
	xp := &xportPort{stackPort: stackPort{st: st, fl: newFlows(len(st.eps), base), tmp: make([]byte, size)},
		spaces: st.spaces("ladder")}
	for node, sp := range xp.spaces {
		buf := make([]byte, size)
		sp.Register(1, func(p *sim.Proc, s xport.RecvStream) {
			n := 0
			for s.Remaining() > 0 && n < len(buf) {
				n += s.Receive(p, buf[n:])
			}
			xp.fl.deliver(node, s.Src(), buf[:n], xp.tmp)
		})
	}
	return xp
}

func (xp *xportPort) send(p *sim.Proc, node, dst int, msg []byte) {
	s, err := xp.spaces[node].BeginMessage(p, dst, len(msg), 1)
	if err == nil {
		if err = s.SendPiece(p, msg); err == nil {
			err = s.EndMessage(p)
		}
	}
	if err != nil {
		xp.bad = append(xp.bad, err.Error())
	}
}

func (xp *xportPort) recv(p *sim.Proc, node, src int) bool {
	before := xp.spaces[node].Packets()
	xp.spaces[node].Extract(p, 0)
	return xp.spaces[node].Packets() > before
}

func (xp *xportPort) finish(p *sim.Proc, node int) {
	settleFixed(p, func() { xp.spaces[node].Extract(p, 0) })
}

// newFabric builds the fabric alone, shaped as cluster.TryNew shapes it but
// with no NICs attached: at the netsim rung the fabric's nodes are the
// benchmark's own Procs. (benchmark_test.go holds the two shapes together.)
func newFabric(k *sim.Kernel, cfg cluster.Config) (*netsim.Network, error) {
	switch cfg.Topology {
	case cluster.DirectPair:
		return netsim.NewDirectPair(k, cfg.Profile.Link), nil
	case cluster.FatTree:
		h := cfg.HostsPerSwitch
		return netsim.NewFatTree(k, cfg.Nodes/h, h, max(h/2, 2), cfg.Profile.Link, cfg.SwitchDelay), nil
	}
	return nil, fmt.Errorf("no netsim rung for topology %s", cfg.Topology)
}

// rungCost is one rung's cost per message.
type rungCost struct {
	layer   string
	hostNS  float64
	events  float64
	mallocs float64
}

// ladderSelf differences a chain of rungs, bottom up: each layer's self cost
// is its rung minus the rung beneath it, and the bottom rung is its own.
// The self costs of a chain therefore sum to its top rung.
func ladderSelf(chain []rungCost) []rungCost {
	self := make([]rungCost, len(chain))
	for i, r := range chain {
		self[i] = r
		if i > 0 {
			b := chain[i-1]
			self[i].hostNS, self[i].events, self[i].mallocs = r.hostNS-b.hostNS, r.events-b.events, r.mallocs-b.mallocs
		}
	}
	return self
}

// rungOut is one measured rung.
type rungOut struct {
	cost     rungCost
	problems []string
	ex       *exchangeOut // the last repeat's traffic record (port rungs only)
}

// built is one constructed rung, ready to run.
type built struct {
	k     *sim.Kernel
	msgs  int64
	check func() []string
	ex    *exchangeOut
}

// measureRung builds and runs one rung `repeats` times; its host time is the
// fastest of them (rungs are differenced, and what a neighbour on the box
// adds to one rung and not the next would land in a layer's self cost).
// Only Kernel.Run is timed and counted: construction is set-up.
func measureRung(layer string, repeats int, build func() (built, error)) (rungOut, error) {
	var host []float64
	out := rungOut{cost: rungCost{layer: layer}}
	for i := 0; i < repeats; i++ {
		b, err := build()
		if err != nil {
			return out, fmt.Errorf("%s rung: %w", layer, err)
		}
		ev0 := b.k.Events()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := b.k.Run(); err != nil {
			return out, fmt.Errorf("%s rung: %w", layer, err)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		host = append(host, float64(d.Nanoseconds())/float64(b.msgs))
		events := float64(b.k.Events()-ev0) / float64(b.msgs)
		if b.ex != nil {
			events -= float64(b.ex.idleEvents) / float64(b.msgs)
		}
		if i > 0 && events != out.cost.events {
			out.problems = append(out.problems, fmt.Sprintf("%s rung is not deterministic: %v then %v events per message", layer, out.cost.events, events))
		}
		out.cost.events = events
		out.cost.mallocs = float64(m1.Mallocs-m0.Mallocs) / float64(b.msgs)
		out.problems = append(out.problems, b.check()...)
		out.ex = b.ex
	}
	out.cost.hostNS = slices.Min(host)
	return out, nil
}

// lowerRungs measures the sim, netsim, lanai, FM and xport rungs of a pattern
// on the machine of one FM generation, bottom up. Only the rungs named in
// `want` are run.
func lowerRungs(pt pattern, gen xport.Gen, topo cluster.Topology, size, repeats int, base []byte, want ...string) ([]rungOut, error) {
	cfg := clusterConfig(gen, pt.nodes, topo)
	withStack := func(mk func(st *stack) port) func() (port, error) {
		return func() (port, error) {
			st, err := newStack(gen, pt.nodes, topo)
			if err != nil {
				return nil, err
			}
			return mk(st), nil
		}
	}
	rungs := []struct {
		layer string
		mk    func() (port, error)
	}{
		{"sim", func() (port, error) { return newSimPort(pt, cfg.Profile, gen, size, base), nil }},
		{"netsim", func() (port, error) {
			net, err := newFabric(sim.NewKernel(), cfg)
			if err != nil {
				return nil, err
			}
			return newNetsimPort(net, cfg.Profile, gen, size, base), nil
		}},
		{"lanai", func() (port, error) {
			pl, err := cluster.TryNew(sim.NewKernel(), cfg)
			if err != nil {
				return nil, err
			}
			return newLanaiPort(pl, gen, size, base), nil
		}},
		{gen.String(), withStack(func(st *stack) port {
			if gen == xport.GenFM1 {
				return newFM1Port(st, size, base)
			}
			return newFM2Port(st, size, base)
		})},
		{"xport", withStack(func(st *stack) port { return newXportPort(st, size, base) })},
	}
	var outs []rungOut
	for _, r := range rungs {
		if len(want) > 0 && !slices.Contains(want, r.layer) {
			continue
		}
		o, err := measureRung(r.layer, repeats, func() (built, error) {
			pr, err := r.mk()
			if err != nil {
				return built{}, err
			}
			ex := exchange(pt, pr, size, base, nil, r.layer)
			return built{pr.kernel(), ex.msgs, pr.problems, ex}, nil
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// ladderSize is the message size every rung of every ladder moves.
const ladderSize = 1024

// ladderRepeats is how often a two-node rung is run; one run is a few
// thousand messages. The fat-tree rungs, tens of thousands each, run twice.
const (
	ladderRepeats    = 3
	xorLadderRepeats = 2
)

// reportChain stores a chain's self costs under the per-layer metric names, and
// the rungs themselves as counters of the trace.
func reportChain(m layerMetrics, rec *recorder, ladder string, chain []rungOut, problems *[]string) {
	costs := make([]rungCost, len(chain))
	for i, r := range chain {
		costs[i] = r.cost
		*problems = append(*problems, r.problems...)
		rec.count(ladder, "rung_ns_per_msg."+r.cost.layer, r.cost.hostNS)
	}
	for _, s := range ladderSelf(costs) {
		m.setSelf(s)
	}
}

// setSelf stores one layer's self cost under its three metric names.
func (m layerMetrics) setSelf(s rungCost) {
	m[s.layer+".self_ns_per_msg"] = s.hostNS
	m[s.layer+".events_per_msg"] = s.events
	m[s.layer+".allocs_per_msg"] = s.mallocs
}

// siblingSelf stores a top rung that sits beside others on one lower rung:
// its self cost is the rung minus that shared rung beneath.
func siblingSelf(m layerMetrics, rec *recorder, ladder string, top rungOut, below rungCost, problems *[]string) {
	*problems = append(*problems, top.problems...)
	rec.count(ladder, "rung_ns_per_msg."+top.cost.layer, top.cost.hostNS)
	m.setSelf(ladderSelf([]rungCost{below, top.cost})[1])
}

// xorLadder is the fat-tree ladder of allreduce-fattree: the xor-exchange
// pattern at the sim, netsim, lanai, fm2 and xport rungs, and the real
// recursive-doubling Allreduce — which is that pattern plus MPI's matching,
// copies and reduction — as the top rung.
func xorLadder(sz allreduceSize, rounds int, seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	var problems []string
	base := payload(seedFor(seed, "xor-exchange"), sz.bytes)
	pt := xorExchange(sz.ranks, rounds)
	chain, err := lowerRungs(pt, xport.GenFM2, cluster.FatTree, sz.bytes, xorLadderRepeats, base)
	if err != nil {
		return nil, err
	}
	in := newAllreduceInputs(seed, sz)
	top, err := measureRung("mpifm", xorLadderRepeats, func() (built, error) {
		st, err := newStack(xport.GenFM2, sz.ranks, cluster.FatTree)
		if err != nil {
			return built{}, err
		}
		comms := mpifm.Attach(st.spaces(mpifm.Service), overheads(xport.GenFM2), mpifm.Options{})
		var errs []string
		for rank, c := range comms {
			st.k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
				send, recv := make([]byte, sz.bytes), make([]byte, sz.bytes)
				for k := 0; k < rounds; k++ {
					in.fill(send, rank, k)
					if err := c.Allreduce(p, send, recv, mpifm.OpSumU32); err != nil || !in.reduced(recv, k) {
						errs = append(errs, fmt.Sprintf("ladder rank %d round %d: wrong reduction (%v)", rank, k, err))
					}
				}
				settleFixed(p, func() { st.eps[rank].Extract(p, 0) })
			})
		}
		check := func() []string { return append(errs, st.quiesce().check("xor-exchange mpifm rung")...) }
		return built{k: st.k, msgs: int64(pt.msgsPerRound()) * int64(rounds), check: check}, nil
	})
	if err != nil {
		return nil, err
	}
	chain = append(chain, top)
	reportChain(m, rec, pt.name, chain, &problems)
	for _, r := range chain {
		if r.cost.layer == "fm2" {
			m["fm2.extract_useful_ratio"] = ratio(r.ex.useful, r.ex.polls)
		}
	}
	return problems, nil
}

// pairLadder is the two-node ladder of pt2pt-sweep, once per pattern. The
// FM 2.x machine carries the main chain sim -> netsim -> lanai -> fm2 ->
// xport, with the four upper layers as siblings on top of xport; fm1 is
// differenced against the lanai rung of its own (Sparc-era) machine, whose
// packets are a quarter the size. The stream ladder fills the per-layer
// metrics; the ping-pong ladder rides in the trace's counters.
func pairLadder(sz pt2ptSize, seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	var problems []string
	n := max(1500*sz.scale/100, 12)
	for _, pt := range []pattern{pairPingpong(n / 2), pairStream(n)} { // stream last: it fills m
		base := payload(seedFor(seed, pt.name), ladderSize)
		chain, err := lowerRungs(pt, xport.GenFM2, cluster.DirectPair, ladderSize, ladderRepeats, base)
		if err != nil {
			return nil, err
		}
		sparc, err := lowerRungs(pt, xport.GenFM1, cluster.DirectPair, ladderSize, ladderRepeats, base, "lanai", "fm1")
		if err != nil {
			return nil, err
		}
		reportChain(m, rec, pt.name, chain, &problems)
		siblingSelf(m, rec, pt.name, sparc[1], sparc[0].cost, &problems)
		xportRung := chain[len(chain)-1].cost
		for _, up := range []string{"mpifm", "sockfm", "shmem", "garr"} {
			c := cell{upper: up, gen: xport.GenFM2, pattern: pt.name[len("pair-"):], size: ladderSize, n: pt.rounds}
			top, err := measureRung(up, ladderRepeats, func() (built, error) {
				var out cellOut
				st, err := buildCell(c, seed, nil, &out)
				if err != nil {
					return built{}, err
				}
				check := func() []string {
					out.collect(c, st)
					return out.errs
				}
				return built{k: st.k, msgs: c.messages(), check: check}, nil
			})
			if err != nil {
				return nil, err
			}
			siblingSelf(m, rec, pt.name, top, xportRung, &problems)
		}
		if pt.name == "pair-pingpong" {
			for k, v := range m {
				if strings.HasSuffix(k, "_per_msg") {
					rec.count(pt.name, k, v)
				}
			}
		}
	}
	return problems, nil
}
