package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	fmnet "repro"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// allreduce-fattree: an fmnet session on a fat tree, FM 2.x, MPI. A linear
// Barrier warms the machine up (it belongs to set-up), then every rank runs
// `rounds` measured Allreduce rounds of OpSumU32 (recursive doubling), all
// ranks entering each round at the same virtual instant. Three-hop routes put
// netsim's switches and trunk links to work, and a rank blocked in a round
// polls Extract every PollEmpty of virtual time, so most kernel events are
// empty polls: this is the workload where sim.events_per_op, credit control
// traffic and scale-dependent cost show.

type allreduceSize struct {
	ranks, rounds, bytes int
}

// 256 ranks x 9 rounds: the issue's fallback shape (512 ranks x 2 rounds
// costs 13 s of host time per repetition, 8 of them in the warm-up barrier,
// which no run budget that repeats set-up can hold), with rounds raised so
// the measured phase stays near 3 s.
var allreduceFull = allreduceSize{ranks: 256, rounds: 9, bytes: 1024}

// gate is a zero-virtual-time rendezvous of n Procs on one kernel: the last
// to arrive runs `last` and releases the rest at the same instant.
type gate struct {
	n, waiting int
	sig        sim.Signal
}

func (g *gate) arrive(p *sim.Proc, last func()) {
	if g.waiting++; g.waiting < g.n {
		g.sig.Wait(p)
		return
	}
	g.waiting = 0
	if last != nil {
		last()
	}
	g.sig.Broadcast()
}

// allreduceInputs is every rank's seeded contribution and the closed-form
// result: element i of round k reduces to sum_r(contrib[r][i]) + ranks*k,
// wrapping in uint32.
type allreduceInputs struct {
	contrib [][]uint32
	sum     []uint32
}

// fill writes rank's contribution to round k into send.
func (in allreduceInputs) fill(send []byte, rank, k int) {
	for i, v := range in.contrib[rank] {
		binary.LittleEndian.PutUint32(send[4*i:], v+uint32(k))
	}
}

// reduced reports whether recv holds round k's closed-form result.
func (in allreduceInputs) reduced(recv []byte, k int) bool {
	for i, v := range in.sum {
		if binary.LittleEndian.Uint32(recv[4*i:]) != v+uint32(len(in.contrib)*k) {
			return false
		}
	}
	return true
}

func newAllreduceInputs(seed int64, sz allreduceSize) allreduceInputs {
	rng := rand.New(rand.NewSource(seedFor(seed, "allreduce-fattree")))
	in := allreduceInputs{contrib: make([][]uint32, sz.ranks), sum: make([]uint32, sz.bytes/4)}
	for r := range in.contrib {
		in.contrib[r] = make([]uint32, sz.bytes/4)
		for i := range in.contrib[r] {
			v := rng.Uint32()
			in.contrib[r][i] = v
			in.sum[i] += v
		}
	}
	return in
}

// fabricCounts is a snapshot of the fabric and NIC counters of a session.
type fabricCounts struct {
	linkPkts, wireBytes, lost int64
	ctrlRecv, dataRecv        int64
	nicDropped                int64
}

func snapFabric(s *fmnet.Session) fabricCounts {
	var c fabricCounts
	for _, l := range s.Fabric().Links() {
		st := l.Stats()
		c.linkPkts += st.Packets
		c.wireBytes += st.WireBytes
		c.lost += st.Dropped + st.DownDropped + st.Corrupted
	}
	for i := 0; i < s.Nodes(); i++ {
		ns := s.NICStats(i)
		c.ctrlRecv += ns.CtrlRecv
		c.dataRecv += ns.Received
		c.nicDropped += ns.CRCDropped + ns.RingDropped
	}
	return c
}

func (c fabricCounts) minus(o fabricCounts) fabricCounts {
	return fabricCounts{c.linkPkts - o.linkPkts, c.wireBytes - o.wireBytes, c.lost - o.lost,
		c.ctrlRecv - o.ctrlRecv, c.dataRecv - o.dataRecv, c.nicDropped - o.nicDropped}
}

// sessionQuiesce checks what a clean fmnet session must look like after its
// Procs are done. fmnet hides the FM engines, so frame pools are out of
// reach here; the ladder, which assembles the same machine itself, checks
// them.
func sessionQuiesce(s *fmnet.Session, where string) (outstanding int, bad []string) {
	for i := 0; i < s.Nodes(); i++ {
		if ca, ok := s.Endpoint(i).Transport().(xport.CreditAccounting); ok {
			m := ca.FlowControl()
			for dst := 0; dst < s.Nodes(); dst++ {
				if dst != i {
					outstanding += m.Outstanding(dst)
				}
			}
		}
		if d := s.RingDepth(i); d != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d packets left in node %d's receive ring", where, d, i))
		}
	}
	if outstanding != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d flow-control credits outstanding at quiesce", where, outstanding))
	}
	if c := snapFabric(s); c.lost != 0 || c.nicDropped != 0 {
		bad = append(bad, fmt.Sprintf("%s: clean fabric lost frames (%d on links, %d at NICs)", where, c.lost, c.nicDropped))
	}
	return outstanding, bad
}

func runAllreduce(sz allreduceSize) func(seed int64, rec *recorder) (rep, error) {
	return func(seed int64, rec *recorder) (rep, error) {
		r := rep{exact: map[string]float64{}}
		clk := startRep()
		in := newAllreduceInputs(seed, sz)
		s, err := fmnet.New(fmnet.Nodes(sz.ranks), fmnet.Topology(fmnet.FatTree), fmnet.FM2(), fmnet.WithMPI())
		if err != nil {
			return r, fmt.Errorf("allreduce-fattree: %w", err)
		}
		var (
			g          = gate{n: sz.ranks}
			ev0        uint64
			fab0, fab1 fabricCounts
			phaseEnd   time.Time
			t0, tEnd   sim.Time
			barrierUS  float64
			lat        = make([]float64, 0, sz.ranks*sz.rounds)
			wrong      int64
			errs       []string
		)
		s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) {
			c := s.MPI(rank)
			send, recv := make([]byte, sz.bytes), make([]byte, sz.bytes)
			sp := rec.begin(p, rank, 0, "mpifm", "Comm.Barrier", 0)
			err := c.Barrier(p)
			rec.end(p, sp)
			if err != nil {
				errs = append(errs, fmt.Sprintf("rank %d barrier: %v", rank, err))
			}
			barrierUS = max(barrierUS, p.Now().Micros())
			g.arrive(p, func() {
				ev0, fab0, t0 = s.Kernel().Events(), snapFabric(s), p.Now()
				clk.beginPhase()
			})
			for k := 0; k < sz.rounds; k++ {
				in.fill(send, rank, k)
				start := p.Now()
				op := rec.begin(p, rank, 0, "driver", "round", int64(k))
				sp := rec.begin(p, rank, op, "mpifm", "Comm.Allreduce", int64(k))
				err := c.Allreduce(p, send, recv, fmnet.OpSumU32)
				rec.end(p, sp)
				rec.end(p, op)
				lat = append(lat, (p.Now() - start).Micros())
				if err != nil || !in.reduced(recv, k) {
					wrong++
					if len(errs) < 4 {
						errs = append(errs, fmt.Sprintf("rank %d round %d: wrong reduction (%v)", rank, k, err))
					}
				}
				g.arrive(p, func() {
					if k == sz.rounds-1 {
						phaseEnd, tEnd = time.Now(), p.Now()
						r.events = s.Kernel().Events() - ev0
						fab1 = snapFabric(s)
					}
				})
			}
			settleFixed(p, func() { s.Endpoint(rank).Extract(p, 0) })
		})
		runErr := s.Run()
		clk.finish(&r)
		if runErr != nil {
			return r, fmt.Errorf("allreduce-fattree: %w", runErr)
		}
		r.phase = phaseEnd.Sub(clk.phaseStart)

		r.ops = int64(sz.ranks * sz.rounds)
		r.failed = wrong
		r.problems = append(r.problems, errs...)
		outstanding, bad := sessionQuiesce(s, "allreduce-fattree")
		r.problems = append(r.problems, bad...)

		virt := tEnd - t0
		fab := fab1.minus(fab0)
		var sent, recvd, direct int64
		hwm := 0
		for rank := 0; rank < sz.ranks; rank++ {
			st := s.MPI(rank).Stats()
			sent, recvd, direct = sent+st.Sent, recvd+st.Recvd, direct+st.Direct
			hwm = max(hwm, st.UnexpectedHWM)
		}
		// Messages of the measured rounds: log2(ranks) sends per rank and
		// round (the barrier's 2*(ranks-1) one-byte tokens are set-up).
		msgs := sent - 2*int64(sz.ranks-1)
		r.exact["virt_time_us"] = virt.Micros()
		r.setLatency(summarize(lat))
		r.exact["virt_goodput_mbps"] = sim.MBps(int64(sz.ranks)*int64(sz.rounds)*int64(sz.bytes), virt)
		r.exact["sim.events"] = float64(r.events)
		r.exact["netsim.link_pkts_per_msg"] = ratio(fab.linkPkts, msgs)
		r.exact["netsim.wire_bytes_per_payload_byte"] = ratio(fab.wireBytes, msgs*int64(sz.bytes))
		r.exact["lanai.ctrl_per_data_pkt"] = ratio(fab.ctrlRecv, fab.dataRecv)
		r.exact["flowctl.outstanding_at_quiesce"] = float64(outstanding)
		r.exact["mpifm.direct_ratio"] = ratio(direct, recvd)
		r.exact["mpifm.unexpected_hwm"] = float64(hwm)
		r.exact["mpifm.barrier_virt_us"] = barrierUS
		r.exact["mpifm.allreduce_virt_us"] = r.exact["virt_op_p50_us"]
		return r, nil
	}
}

// parallelProcs is the P count of the traced run's two parallel
// measurements (sim.Engine here, par.ForEach in chaos-campaign).
func parallelProcs() int { return min(runtime.NumCPU(), 4) }

// allreduceWall runs barrier + rounds ungated (a gate cannot span the LPs of
// a parallel engine) and returns the host time of Run and the modelled time
// at which the last rank finished.
func allreduceWall(sz allreduceSize, opts ...fmnet.Option) (time.Duration, sim.Time, *fmnet.Session, error) {
	opts = append([]fmnet.Option{fmnet.Nodes(sz.ranks), fmnet.Topology(fmnet.FatTree), fmnet.FM2(), fmnet.WithMPI()}, opts...)
	s, err := fmnet.New(opts...)
	if err != nil {
		return 0, 0, nil, err
	}
	ends := make([]sim.Time, sz.ranks)
	s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) {
		c := s.MPI(rank)
		send, recv := make([]byte, sz.bytes), make([]byte, sz.bytes)
		if err := c.Barrier(p); err != nil {
			panic(err)
		}
		for k := 0; k < sz.rounds; k++ {
			if err := c.Allreduce(p, send, recv, fmnet.OpSumU32); err != nil {
				panic(err)
			}
		}
		ends[rank] = p.Now()
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, 0, nil, err
	}
	wall := time.Since(t0)
	var end sim.Time
	for _, e := range ends {
		end = max(end, e)
	}
	return wall, end, s, nil
}

func allreduceLayers(sz allreduceSize, ladderRounds int) func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	return func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
		problems, err := xorLadder(sz, ladderRounds, seed, rec, m)
		if err != nil {
			return nil, err
		}
		if err := buildTimes(sz, m); err != nil {
			return nil, err
		}
		sz.rounds = ladderRounds // the engine comparison needs no more
		// The parallel engine against the same shape run sequentially. Full
		// bisection keeps the partition cuts free of back-pressure, which is
		// what lets the run certify as bit-identical.
		procs := parallelProcs()
		seqWall, seqEnd, _, err := allreduceWall(sz, fmnet.WithFullBisection())
		if err != nil {
			return nil, err
		}
		if procs < 2 {
			// One CPU: there is no parallel run to compare against.
			m["sim.engine.speedup_x"], m["sim.engine.certified"] = 1, 1
			return problems, nil
		}
		prev := runtime.GOMAXPROCS(procs)
		parWall, parEnd, ps, err := allreduceWall(sz, fmnet.WithFullBisection(), fmnet.WithParallel(procs))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		m["sim.engine.speedup_x"] = seqWall.Seconds() / parWall.Seconds()
		m["sim.engine.cut_stalls"] = float64(ps.Fabric().CutStalls())
		if ps.Fabric().Certified() {
			m["sim.engine.certified"] = 1
			if parEnd != seqEnd {
				problems = append(problems, fmt.Sprintf("parallel engine certified its run but finished at %v, sequential at %v", parEnd, seqEnd))
			}
		}
		return problems, nil
	}
}

// buildTimes times the three construction layers of the workload's machine
// apart: the bare fabric (routes are O(nodes^2)), the cluster on top of it
// (hosts, NICs), and the whole fmnet session (endpoints, services).
func buildTimes(sz allreduceSize, m layerMetrics) error {
	cfg := clusterConfig(xport.GenFM2, sz.ranks, cluster.FatTree)
	t0 := time.Now()
	if _, err := newFabric(sim.NewKernel(), cfg); err != nil {
		return err
	}
	m["netsim.build_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := cluster.TryNew(sim.NewKernel(), cfg); err != nil {
		return err
	}
	m["cluster.build_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := fmnet.New(fmnet.Nodes(sz.ranks), fmnet.Topology(fmnet.FatTree), fmnet.FM2(), fmnet.WithMPI()); err != nil {
		return err
	}
	m["fmnet.build_s"] = time.Since(t0).Seconds()
	return nil
}
