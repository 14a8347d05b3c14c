package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/garr"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/xport"
)

// Contention-aware fabric suite: the collective scaling sweeps and the
// layering matrix, re-run across the fabric zoo. The single-crossbar
// results of Figures 4/6 are blind to bisection limits — every port has a
// private path to every other port — so this suite drives the same
// workloads over multi-stage fabrics whose trunks are a shared, finite
// resource, and prices the difference the way the single-switch matrix
// prices the FM 1.x staging adapter.

// Fabric names one topology of the fabric zoo for bench sweeps.
type Fabric string

// The fabric zoo, in increasing bisection order of interest: one crossbar
// (full bisection), a line of switches (one-trunk worst case), a 2-level
// fat tree (oversubscribed uplinks), a 2D torus (wraparound rings).
const (
	FabSingle  Fabric = "single"
	FabLine    Fabric = "line"
	FabFatTree Fabric = "fattree"
	FabTorus   Fabric = "torus"
)

// AllFabrics lists the zoo in report order.
var AllFabrics = []Fabric{FabSingle, FabLine, FabFatTree, FabTorus}

// apply shapes cfg for n nodes on this fabric. Hosts-per-switch adapts to
// small n so every power-of-two rank count from 2 up assembles, and grows
// on the fat tree for very large n: every spine connects to every edge
// switch, so the edge count must fit one crossbar's port budget
// (netsim.MaxSwitchPorts). At 4096 nodes that means 16 hosts per edge
// (256 edges); the 64..1024-rank points keep their historical shape of 4.
func (f Fabric) apply(cfg *cluster.Config, n int) {
	cfg.Nodes = n
	hosts := func(def int) int {
		for h := def; h > 1; h /= 2 {
			if n%h == 0 && n/h >= 2 {
				return h
			}
		}
		return 1
	}
	switch f {
	case FabSingle:
		cfg.Topology = cluster.SingleSwitch
	case FabLine:
		cfg.Topology = cluster.Line
		cfg.HostsPerSwitch = hosts(2)
	case FabFatTree:
		cfg.Topology = cluster.FatTree
		h := hosts(4)
		for n%(h*2) == 0 && n/h > netsim.MaxSwitchPorts {
			h *= 2
		}
		cfg.HostsPerSwitch = h
	case FabTorus:
		cfg.Topology = cluster.Torus2D
		cfg.HostsPerSwitch = hosts(4)
	default:
		panic(fmt.Sprintf("bench: unknown fabric %q", f))
	}
}

// endpoints assembles the n-node machine of generation g on fabric f — a
// fresh kernel, the generation's platform, one shared endpoint per node.
// Every bench driver above raw FM builds its stack through here and then
// registers its services on the endpoints.
func endpoints(g xport.Gen, n int, f Fabric) (*sim.Kernel, []*xport.Endpoint) {
	cfg := cluster.DefaultConfig()
	cfg.Profile = g.Profile()
	f.apply(&cfg, n)
	k := sim.NewKernel()
	return k, xport.AttachEndpoints(cluster.New(k, cfg), xport.EndpointConfig{Gen: g})
}

// attachMPI registers the MPI service on every endpoint, with the
// generation's overheads.
func attachMPI(eps []*xport.Endpoint, g xport.Gen, opt mpifm.Options) []*mpifm.Comm {
	return mpifm.Attach(xport.Spaces(eps, mpifm.Service), mpifm.OverheadsFor(g), opt)
}

// mpiWorld is endpoints plus an n-rank MPI world on them.
func mpiWorld(g xport.Gen, n int, f Fabric, opt mpifm.Options) (*sim.Kernel, []*mpifm.Comm) {
	k, eps := endpoints(g, n, f)
	return k, attachMPI(eps, g, opt)
}

// matrixHandlerID is the handler slot the bare-window baseline claims.
const matrixHandlerID = 9

// cutPairs is the fabric's natural bisection traffic pattern: rank i
// streams to rank i+n/2. On one crossbar every flow has a private path; on
// the multi-stage fabrics every flow crosses the cut, so the trunks (one
// line trunk, the fat tree's uplinks, the torus rings) carry all of them.
func cutPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n/2)
	for i := 0; i < n/2; i++ {
		pairs = append(pairs, [2]int{i, i + n/2})
	}
	return pairs
}

// xportFlows streams size*msgs bytes along each (src, dst) pair through a
// bare service window (no upper layer) simultaneously and reports aggregate
// bandwidth: total bytes over the span from the first flow's start to the
// last flow's completion.
func xportFlows(g xport.Gen, f Fabric, n int, pairs [][2]int, size, msgs int) float64 {
	k, eps := endpoints(g, n, f)
	sp := xport.Spaces(eps, "xport")
	starts := make([]sim.Time, len(pairs))
	ends := make([]sim.Time, len(pairs))
	for fi, pr := range pairs {
		fi, src, dst := fi, pr[0], pr[1]
		recvd := 0
		buf := make([]byte, size)
		sp[dst].Register(matrixHandlerID, func(p *sim.Proc, s xport.RecvStream) {
			for s.Remaining() > 0 {
				m := s.Remaining()
				if m > len(buf) {
					m = len(buf)
				}
				s.Receive(p, buf[:m])
			}
			recvd++
			if recvd == msgs {
				ends[fi] = p.Now()
			}
		})
		k.Spawn(fmt.Sprintf("flow%d.send", fi), func(p *sim.Proc) {
			starts[fi] = p.Now()
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := xport.Send(p, sp[src], dst, matrixHandlerID, msg); err != nil {
					panic(err)
				}
			}
		})
		k.Spawn(fmt.Sprintf("flow%d.recv", fi), func(p *sim.Proc) {
			for recvd < msgs {
				sp[dst].Extract(p, 0)
				if recvd < msgs {
					p.Delay(500 * sim.Nanosecond)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: xport flows on %s: %v", f, err))
	}
	return aggregate(size, msgs, starts, ends)
}

// XportFlowBandwidth measures one uncontended flow across the fabric's
// cut (rank 0 to rank n/2): the switch-limited baseline every contended
// number is compared against.
func XportFlowBandwidth(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	return xportFlows(g, f, n, [][2]int{{0, n / 2}}, size, msgs)
}

// XportBisection drives all n/2 cut flows at once and reports aggregate
// bandwidth. Aggregate ~= (n/2) x single-flow means the fabric is
// switch-limited; aggregate pinned near the trunk capacity means it is
// bisection-limited.
func XportBisection(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	return xportFlows(g, f, n, cutPairs(n), size, msgs)
}

// LayerBisection is XportBisection through one upper layer: all n/2 cut
// flows stream size*msgs bytes each via the layer's own primitives, and
// the result is aggregate MB/s. Run across fabrics it re-prices the
// layering matrix under trunk contention.
func LayerBisection(l Layer, g xport.Gen, f Fabric, n, size, msgs int) float64 {
	switch l {
	case LayerMPI:
		return mpiBisection(g, f, n, size, msgs)
	case LayerSock:
		return sockBisection(g, f, n, size, msgs)
	case LayerShmem:
		return shmemBisection(g, f, n, size, msgs)
	case LayerGarr:
		return garrBisection(g, f, n, size, msgs)
	}
	panic(fmt.Sprintf("bench: unknown layer %q", l))
}

func mpiBisection(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	k, comms := mpiWorld(g, n, f, mpifm.Options{})
	pairs := cutPairs(n)
	starts := make([]sim.Time, len(pairs))
	ends := make([]sim.Time, len(pairs))
	for fi, pr := range pairs {
		fi, src, dst := fi, pr[0], pr[1]
		k.Spawn(fmt.Sprintf("flow%d.send", fi), func(p *sim.Proc) {
			starts[fi] = p.Now()
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := comms[src].Send(p, msg, dst, 1); err != nil {
					panic(err)
				}
			}
		})
		k.Spawn(fmt.Sprintf("flow%d.recv", fi), func(p *sim.Proc) {
			buf := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if _, err := comms[dst].Recv(p, buf, src, 1); err != nil {
					panic(err)
				}
			}
			ends[fi] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: mpi bisection on %s: %v", f, err))
	}
	return aggregate(size, msgs, starts, ends)
}

func sockBisection(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	k, eps := endpoints(g, n, f)
	stacks := make([]*sockfm.Stack, n)
	for i, sp := range xport.Spaces(eps, sockfm.Service) {
		stacks[i] = sockfm.New(sp)
	}
	pairs := cutPairs(n)
	starts := make([]sim.Time, len(pairs))
	ends := make([]sim.Time, len(pairs))
	total := size * msgs
	for fi, pr := range pairs {
		fi, src, dst := fi, pr[0], pr[1]
		k.Spawn(fmt.Sprintf("flow%d.server", fi), func(p *sim.Proc) {
			l, err := stacks[dst].Listen(80)
			if err != nil {
				panic(err)
			}
			conn, err := l.Accept(p)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 64*1024)
			got := 0
			for got < total {
				m, err := conn.Read(p, buf)
				if err != nil {
					panic(err)
				}
				got += m
			}
			ends[fi] = p.Now()
		})
		k.Spawn(fmt.Sprintf("flow%d.client", fi), func(p *sim.Proc) {
			conn, err := stacks[src].Dial(p, dst, 80)
			if err != nil {
				panic(err)
			}
			starts[fi] = p.Now()
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if _, err := conn.Write(p, msg); err != nil {
					panic(err)
				}
			}
			conn.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: sock bisection on %s: %v", f, err))
	}
	return aggregate(size, msgs, starts, ends)
}

func shmemBisection(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	k, eps := endpoints(g, n, f)
	nodes := make([]*shmem.Node, n)
	for i, sp := range xport.Spaces(eps, shmem.Service) {
		nodes[i] = shmem.Attach(sp)
		nodes[i].Register(1, make([]byte, size))
	}
	pairs := cutPairs(n)
	starts := make([]sim.Time, len(pairs))
	ends := make([]sim.Time, len(pairs))
	for fi, pr := range pairs {
		fi, src, dst := fi, pr[0], pr[1]
		k.Spawn(fmt.Sprintf("flow%d.origin", fi), func(p *sim.Proc) {
			starts[fi] = p.Now()
			data := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := nodes[src].Put(p, dst, 1, 0, data); err != nil {
					panic(err)
				}
				nodes[src].Progress(p)
			}
			nodes[src].Quiet(p)
		})
		k.Spawn(fmt.Sprintf("flow%d.target", fi), func(p *sim.Proc) {
			for nodes[dst].Stats().RemotePuts < int64(msgs) {
				nodes[dst].Progress(p)
				p.Delay(500 * sim.Nanosecond)
			}
			ends[fi] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: shmem bisection on %s: %v", f, err))
	}
	return aggregate(size, msgs, starts, ends)
}

func garrBisection(g xport.Gen, f Fabric, n, size, msgs int) float64 {
	elems := size / 8
	if elems < 1 {
		elems = 1
	}
	k, eps := endpoints(g, n, f)
	arrays := make([]*garr.Array, n)
	for i, sp := range xport.Spaces(eps, garr.Service) {
		a, err := garr.Attach(sp, 1, n*elems, n)
		if err != nil {
			panic(err)
		}
		arrays[i] = a
	}
	pairs := cutPairs(n)
	starts := make([]sim.Time, len(pairs))
	ends := make([]sim.Time, len(pairs))
	for fi, pr := range pairs {
		fi, src, dst := fi, pr[0], pr[1]
		k.Spawn(fmt.Sprintf("flow%d.origin", fi), func(p *sim.Proc) {
			starts[fi] = p.Now()
			vals := make([]float64, elems)
			for i := 0; i < msgs; i++ {
				// Global range [dst*elems, (dst+1)*elems) is dst's block:
				// each Put is one remote one-sided transfer over the cut.
				if err := arrays[src].Put(p, dst*elems, vals); err != nil {
					panic(err)
				}
			}
		})
		k.Spawn(fmt.Sprintf("flow%d.target", fi), func(p *sim.Proc) {
			target := arrays[dst].Node()
			for target.Stats().RemotePuts < int64(msgs) {
				target.Progress(p)
				p.Delay(500 * sim.Nanosecond)
			}
			ends[fi] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: garr bisection on %s: %v", f, err))
	}
	return aggregate(elems*8, msgs, starts, ends)
}

// aggregate turns per-flow start/end stamps into aggregate MB/s.
func aggregate(size, msgs int, starts, ends []sim.Time) float64 {
	start, end := starts[0], ends[0]
	for i := 1; i < len(starts); i++ {
		if starts[i] < start {
			start = starts[i]
		}
		if ends[i] > end {
			end = ends[i]
		}
	}
	return Elapsed(int64(size)*int64(msgs)*int64(len(starts)), end-start)
}

// FabricRegime classifies a fabric's behavior under the cut load.
type FabricRegime string

// The two regimes the report separates: a switch-limited fabric scales
// aggregate bandwidth with flow count (per-port crossbar limits dominate);
// a bisection-limited fabric pins aggregate at trunk capacity.
const (
	RegimeSwitchLimited    FabricRegime = "switch-limited"
	RegimeBisectionLimited FabricRegime = "bisection-limited"
)

// BisectionPoint is one fabric's cut measurement.
type BisectionPoint struct {
	Fabric     Fabric
	FlowMBps   float64 // one uncontended cut flow
	AggMBps    float64 // all n/2 cut flows at once
	Scaling    float64 // AggMBps / FlowMBps: effective parallel cut paths
	Efficiency float64 // 100 * Scaling / (n/2): % of a full-bisection fabric
	Regime     FabricRegime
}

// MeasureBisection runs the cut experiment on one fabric. The regime
// threshold is half of ideal scaling: above it the fabric still behaves
// like a crossbar for this load; below it the trunks are the bottleneck.
func MeasureBisection(g xport.Gen, f Fabric, n, size, msgs int) BisectionPoint {
	pt := BisectionPoint{
		Fabric:   f,
		FlowMBps: XportFlowBandwidth(g, f, n, size, msgs),
		AggMBps:  XportBisection(g, f, n, size, msgs),
	}
	if pt.FlowMBps > 0 {
		pt.Scaling = pt.AggMBps / pt.FlowMBps
	}
	ideal := float64(n / 2)
	pt.Efficiency = 100 * pt.Scaling / ideal
	if pt.Scaling >= ideal/2 {
		pt.Regime = RegimeSwitchLimited
	} else {
		pt.Regime = RegimeBisectionLimited
	}
	return pt
}

// FabricReportConfig parameterizes the -topo report.
type FabricReportConfig struct {
	Fabrics []Fabric
	// Bisection experiment.
	BisectNodes, BisectSize, BisectMsgs int
	// Layering matrix under cut load.
	MatrixNodes, MatrixSize, MatrixMsgs int
	// Collective scaling across fabrics.
	Ops   []CollectiveOp
	Ranks []int
	Size  int
}

// DefaultFabricReportConfig is the configuration behind fmbench -topo.
func DefaultFabricReportConfig() FabricReportConfig {
	return FabricReportConfig{
		Fabrics:     AllFabrics,
		BisectNodes: 32, BisectSize: 2048, BisectMsgs: 150,
		MatrixNodes: 16, MatrixSize: 2048, MatrixMsgs: 100,
		Ops:   []CollectiveOp{CollBcast, CollAllreduce, CollAlltoall},
		Ranks: []int{8, 16, 32, 64},
		Size:  512,
	}
}

// WriteFabricReport renders the full contention-aware fabric report:
// bisection regimes, the layering matrix under cut load, and collective
// scaling across every fabric of the zoo.
func WriteFabricReport(w io.Writer, cfg FabricReportConfig) {
	fmt.Fprintf(w, "Fabric zoo: contention-aware scaling across %d topologies\n\n", len(cfg.Fabrics))

	fmt.Fprintf(w, "Bisection regimes (xport/fm2, %d nodes, %d B x %d msgs per flow, %d cut flows):\n",
		cfg.BisectNodes, cfg.BisectSize, cfg.BisectMsgs, cfg.BisectNodes/2)
	fmt.Fprintf(w, "  %-8s  %12s  %12s  %8s  %6s  %s\n",
		"fabric", "1-flow MB/s", "agg MB/s", "scaling", "eff%", "regime")
	for _, f := range cfg.Fabrics {
		pt := MeasureBisection(xport.GenFM2, f, cfg.BisectNodes, cfg.BisectSize, cfg.BisectMsgs)
		fmt.Fprintf(w, "  %-8s  %12.2f  %12.2f  %7.1fx  %5.0f%%  %s\n",
			pt.Fabric, pt.FlowMBps, pt.AggMBps, pt.Scaling, pt.Efficiency, pt.Regime)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Layering matrix under cut load (aggregate MB/s over %d flows, %d nodes;\n",
		cfg.MatrixNodes/2, cfg.MatrixNodes)
	fmt.Fprintln(w, "% = retained vs the same layer/binding on the single crossbar — the trunk-contention tax):")
	rows := []string{"xport"}
	for _, l := range UpperLayers {
		rows = append(rows, string(l))
	}
	measure := func(name string, b xport.Gen, f Fabric) float64 {
		if name == "xport" {
			return XportBisection(b, f, cfg.MatrixNodes, cfg.MatrixSize, cfg.MatrixMsgs)
		}
		return LayerBisection(Layer(name), b, f, cfg.MatrixNodes, cfg.MatrixSize, cfg.MatrixMsgs)
	}
	// The single-crossbar baseline is measured unconditionally so the
	// retained-% column stays meaningful whatever cfg.Fabrics contains.
	type key struct {
		name string
		b    xport.Gen
	}
	base := map[key]float64{}
	for _, name := range rows {
		for _, b := range AllGens {
			base[key{name, b}] = measure(name, b, FabSingle)
		}
	}
	for _, f := range cfg.Fabrics {
		fmt.Fprintf(w, "  %s\n", f)
		fmt.Fprintf(w, "    %-8s  %12s  %6s  %12s  %6s\n", "layer", "fm1 MB/s", "%", "fm2 MB/s", "%")
		for _, name := range rows {
			fmt.Fprintf(w, "    %-8s", name)
			for _, b := range AllGens {
				v := base[key{name, b}]
				if f != FabSingle {
					v = measure(name, b, f)
				}
				pct := 0.0
				if bv := base[key{name, b}]; bv > 0 {
					pct = 100 * v / bv
				}
				fmt.Fprintf(w, "  %12.2f  %5.0f%%", v, pct)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Collective scaling across fabrics (%d B per rank, time per op in us, algo=auto):\n", cfg.Size)
	scfg := CollectiveScalingConfig{Ranks: cfg.Ranks, Size: cfg.Size, Iters: 1, Algo: mpifm.AlgoAuto}
	for _, op := range cfg.Ops {
		fmt.Fprintf(w, "  %s\n", op)
		fmt.Fprintf(w, "    %6s", "ranks")
		for _, f := range cfg.Fabrics {
			fmt.Fprintf(w, "  %10s_1  %10s_2", f, f)
		}
		fmt.Fprintln(w)
		series := make(map[Fabric][]ScalingPoint, len(cfg.Fabrics))
		for _, f := range cfg.Fabrics {
			series[f] = CollectiveScalingOn(f, op, scfg)
		}
		for i, n := range cfg.Ranks {
			fmt.Fprintf(w, "    %6d", n)
			for _, f := range cfg.Fabrics {
				fmt.Fprintf(w, "  %12.2f  %12.2f", series[f][i].FM1us, series[f][i].FM2us)
			}
			fmt.Fprintln(w)
		}
	}
}
