package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xport"
)

// stack is one assembled simulation with a handle on every layer, built
// through the layers' public constructors in the order fmnet.New uses:
// cluster.TryNew (fabric, hosts, NICs), fm1/fm2.Attach, xport.OverFM*,
// xport.NewEndpoint. The benchmark assembles the stack itself wherever it
// needs those handles — to enter a rung of the ladder, to read a layer's
// Stats(), to check frame pools at quiesce; fmnet.Session hides them.
type stack struct {
	k   *sim.Kernel
	pl  *cluster.Platform
	fm1 []*fm1.Endpoint // exactly one of fm1, fm2 is set
	fm2 []*fm2.Endpoint
	eps []*xport.Endpoint
}

// clusterConfig is the machine of a generation: FM 1.x on the Sparc-era
// profile, FM 2.x on the PPro-era one — the pairing fmnet.New makes.
func clusterConfig(gen xport.Gen, nodes int, topo cluster.Topology) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Topology = topo
	cfg.AutoShape()
	if gen == xport.GenFM1 {
		cfg.Profile = hostmodel.Sparc()
	}
	return cfg
}

func newStack(gen xport.Gen, nodes int, topo cluster.Topology) (*stack, error) {
	k := sim.NewKernel()
	pl, err := cluster.TryNew(k, clusterConfig(gen, nodes, topo))
	if err != nil {
		return nil, err
	}
	s := &stack{k: k, pl: pl, eps: make([]*xport.Endpoint, nodes)}
	if gen == xport.GenFM1 {
		s.fm1 = fm1.Attach(pl, fm1.Config{})
		for i, ep := range s.fm1 {
			s.eps[i] = xport.NewEndpoint(xport.OverFM1(ep))
		}
	} else {
		s.fm2 = fm2.Attach(pl, fm2.Config{})
		for i, ep := range s.fm2 {
			s.eps[i] = xport.NewEndpoint(xport.OverFM2(ep))
		}
	}
	return s, nil
}

// spaces registers one service on every node and returns its windows.
func (s *stack) spaces(service string) []*xport.HandlerSpace {
	sp := make([]*xport.HandlerSpace, len(s.eps))
	for i, ep := range s.eps {
		sp[i] = ep.Register(service)
	}
	return sp
}

func (s *stack) flowControl(node int) *flowctl.Manager {
	if s.fm1 != nil {
		return s.fm1[node].FlowControl()
	}
	return s.fm2[node].FlowControl()
}

func (s *stack) poolStats(node int) (data, ctrl netsim.PoolStats) {
	if s.fm1 != nil {
		return s.fm1[node].FramePoolStats()
	}
	return s.fm2[node].FramePoolStats()
}

// fmTotals sums the FM engine counters the per-layer ratios are built from.
type fmTotals struct {
	msgsSent, pktsSent, bytesRecvd int64
}

func (s *stack) fmTotals() fmTotals {
	var t fmTotals
	for i := range s.eps {
		if s.fm1 != nil {
			st := s.fm1[i].Stats()
			t.msgsSent, t.pktsSent, t.bytesRecvd = t.msgsSent+st.MsgsSent, t.pktsSent+st.PacketsSent, t.bytesRecvd+st.BytesRecvd
		} else {
			st := s.fm2[i].Stats()
			t.msgsSent, t.pktsSent, t.bytesRecvd = t.msgsSent+st.MsgsSent, t.pktsSent+st.PacketsSent, t.bytesRecvd+st.BytesRecvd
		}
	}
	return t
}

// quiesce is the state every layer must be in after a clean run.
type quiesce struct {
	outstanding      int   // credits senders still count as spent
	gets, releases   int64 // frame pools, data + control, summed
	ringDepth        int
	dropped, crcDrop int64
}

// credits sums Outstanding(dst) over every ordered pair of a platform's
// flow-control managers.
func credits(nodes int, fc func(node int) *flowctl.Manager) int {
	n := 0
	for i := 0; i < nodes; i++ {
		m := fc(i)
		for dst := 0; dst < nodes; dst++ {
			if dst != i {
				n += m.Outstanding(dst)
			}
		}
	}
	return n
}

func (s *stack) quiesce() quiesce {
	var q quiesce
	q.outstanding = credits(len(s.eps), s.flowControl)
	for i := range s.eps {
		d, c := s.poolStats(i)
		q.gets += d.Gets + c.Gets
		q.releases += d.Releases + c.Releases
		q.ringDepth += s.pl.NICs[i].RingLen()
		q.crcDrop += s.pl.NICs[i].Stats().CRCDropped + s.pl.NICs[i].Stats().RingDropped
	}
	for _, l := range s.pl.Net.Links() {
		st := l.Stats()
		q.dropped += st.Dropped + st.DownDropped + st.Corrupted
	}
	return q
}

// check reports what a clean run left behind that it must not.
func (q quiesce) check(where string) []string {
	var bad []string
	if q.outstanding != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d flow-control credits outstanding at quiesce", where, q.outstanding))
	}
	if q.gets != q.releases {
		bad = append(bad, fmt.Sprintf("%s: frame pools handed out %d frames and got %d back", where, q.gets, q.releases))
	}
	if q.ringDepth != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d packets left in receive rings", where, q.ringDepth))
	}
	if q.dropped != 0 || q.crcDrop != 0 {
		bad = append(bad, fmt.Sprintf("%s: clean fabric lost frames (%d on links, %d at NICs)", where, q.dropped, q.crcDrop))
	}
	return bad
}

// After its last operation every node makes idle polls settleGap apart so
// withheld credit batches drain: until the machine is quiet where that is
// cheap to see (stack.settle), settlePolls of them where it is not
// (settleFixed).
const (
	settlePolls = 8
	settleGap   = 10 * sim.Microsecond
)

// settle keeps a node polling after its traffic is done until the machine is
// quiet: receivers return their withheld partial credit batches on an idle
// poll, and senders absorb them on their next one — what a real program's
// next communication call would do. Without it the "outstanding at quiesce"
// check would read the batching lag, not a leak. The poll count is bounded,
// so a real leak ends the run and fails that check.
func (s *stack) settle(p *sim.Proc, extract func()) {
	for i := 0; i < 1000; i++ {
		extract()
		p.Delay(settleGap)
		if q := s.quiesce(); q.outstanding == 0 && q.gets == q.releases {
			return
		}
	}
}

// settleFixed is stack.settle for machines too large to sum all pairs per
// poll: a fixed number of idle polls, the all-pairs check once afterwards.
func settleFixed(p *sim.Proc, extract func()) {
	for i := 0; i < settlePolls; i++ {
		extract()
		p.Delay(settleGap)
	}
}
