package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/garr"
	"repro/internal/mpifm"
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

// Fabric names one topology of the fabric zoo for bench sweeps; reports
// print its String. The shape for a node count (hosts per switch, spines) is
// cluster.Config.AutoShape's.
type Fabric = cluster.Topology

// The fabric zoo, in increasing bisection order of interest: one crossbar
// (full bisection), a line of switches (one-trunk worst case), a 2-level
// fat tree (oversubscribed uplinks), a 2D torus (wraparound rings).
const (
	FabSingle  = cluster.SingleSwitch
	FabLine    = cluster.Line
	FabFatTree = cluster.FatTree
	FabTorus   = cluster.Torus2D
)

// AllFabrics lists the zoo in report order.
var AllFabrics = []Fabric{FabSingle, FabLine, FabFatTree, FabTorus}

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

// flow is one (src, dst) stream of the flow skeleton. Its two procs stamp
// start when the flow's clock starts and end when its last byte has landed.
type flow struct {
	src, dst int
	*stamp
}

// flowProc is one of a flow's two procs; role names it in diagnostics, and
// it acts for node.
type flowProc struct {
	role string
	node int
	body func(p *sim.Proc)
}

// spawnFlows spawns the two procs of one flow per (src, dst) pair, all at
// once, in pair order and each pair's procs in the order its layer gives
// them; it returns the flows' stamps, which the procs fill as they run.
func spawnFlows(k *sim.Kernel, name string, pairs [][2]int, procs func(flow) [2]flowProc) []stamp {
	stamps := make([]stamp, len(pairs))
	for fi, pr := range pairs {
		for _, pc := range procs(flow{pr[0], pr[1], &stamps[fi]}) {
			k.Spawn(fmt.Sprintf("%s%d.%s", name, fi, pc.role), pc.body).ActsFor(pc.node)
		}
	}
	return stamps
}

// flowBandwidth is the flow skeleton every bandwidth driver runs on: the
// flows of spawnFlows, each moving bytes through the two procs its layer
// contributes (streamFlow for raw FM and the bare window); the result is
// aggregate MB/s, total bytes over the span from the first flow's start to
// the last flow's completion.
func flowBandwidth(pl *cluster.Platform, what string, pairs [][2]int, procs func(flow) [2]flowProc, bytes int64) float64 {
	stamps := spawnFlows(pl.K, "flow", pairs, procs)
	run(pl, "%d %s flows", len(pairs), what)
	return sim.MBps(bytes*int64(len(pairs)), span(stamps))
}

// layerFlows runs the skeleton through layer l on fabric f: every pair
// streams msgs messages of size bytes (whole elements of the layer) at once.
func layerFlows(l Layer, m xport.Machine, f Fabric, n int, pairs [][2]int, size, msgs int) float64 {
	size = l.elem * max(size/l.elem, 1)
	pl, eps := endpoints(m, n, f)
	return flowBandwidth(pl, fmt.Sprintf("%s/%s on %s", l, m.Gen, f), pairs, l.flows(eps, size, msgs), int64(size)*int64(msgs))
}

// LayerBisection is the cut experiment through one layer: all n/2 cut
// flows stream size*msgs bytes each via the layer's own primitives, and
// the result is aggregate MB/s. Aggregate ~= (n/2) x single-flow means the
// fabric is switch-limited; aggregate pinned near the trunk capacity means
// it is bisection-limited. Run across fabrics it re-prices the layering
// matrix under trunk contention.
func LayerBisection(l Layer, m xport.Machine, f Fabric, n, size, msgs int) float64 {
	return layerFlows(l, m, f, n, cutPairs(n), size, msgs)
}

// mpiFlow streams by MPI_Send against the standard bandwidth-test receiver:
// post each receive, then wait — after computing for lag first, when the
// pacing ablation wants a busy receiver that is not progressing MPI.
func mpiFlow(comms []*mpifm.Comm, size, msgs int, lag sim.Time) func(flow) [2]flowProc {
	return func(fl flow) [2]flowProc {
		return [2]flowProc{{"send", fl.src, func(p *sim.Proc) {
			fl.start = p.Now()
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := comms[fl.src].Send(p, msg, fl.dst, 1); err != nil {
					panic(err)
				}
			}
		}}, {"recv", fl.dst, func(p *sim.Proc) {
			buf := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if lag > 0 {
					p.Delay(lag)
				}
				if _, err := comms[fl.dst].Recv(p, buf, fl.src, 1); err != nil {
					panic(err)
				}
			}
			fl.end = p.Now()
		}}}
	}
}

// sockFlow streams over one connection per flow; the clock starts once the
// connection is up.
func sockFlow(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc {
	stacks := make([]*sockfm.Stack, len(eps))
	for i, sp := range xport.Spaces(eps, sockfm.Service) {
		stacks[i] = sockfm.New(sp)
	}
	total := size * msgs
	return func(fl flow) [2]flowProc {
		return [2]flowProc{{"server", fl.dst, func(p *sim.Proc) {
			l, err := stacks[fl.dst].Listen(80)
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
			fl.end = p.Now()
		}}, {"client", fl.src, func(p *sim.Proc) {
			conn, err := stacks[fl.src].Dial(p, fl.dst, 80)
			if err != nil {
				panic(err)
			}
			fl.start = p.Now()
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if _, err := conn.Write(p, msg); err != nil {
					panic(err)
				}
			}
			conn.Close(p)
		}}}
	}
}

// putTarget is the receiving side of the one-sided layers: serve incoming
// puts until msgs of them have landed.
func putTarget(node *shmem.Node, msgs int, fl flow) flowProc {
	return flowProc{"target", fl.dst, func(p *sim.Proc) {
		for node.Stats().RemotePuts < int64(msgs) {
			node.Progress(p)
			p.Delay(500 * sim.Nanosecond)
		}
		fl.end = p.Now()
	}}
}

// shmemFlow streams by one-sided Put into a symmetric region.
func shmemFlow(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc {
	nodes := make([]*shmem.Node, len(eps))
	for i, sp := range xport.Spaces(eps, shmem.Service) {
		nodes[i] = shmem.Attach(sp)
		nodes[i].Register(1, make([]byte, size))
	}
	return func(fl flow) [2]flowProc {
		return [2]flowProc{{"origin", fl.src, func(p *sim.Proc) {
			fl.start = p.Now()
			data := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := nodes[fl.src].Put(p, fl.dst, 1, 0, data); err != nil {
					panic(err)
				}
				nodes[fl.src].Progress(p)
			}
			nodes[fl.src].Quiet(p)
		}}, putTarget(nodes[fl.dst], msgs, fl)}
	}
}

// garrFlow streams by Global Arrays Put of size bytes of float64s into the
// destination rank's block.
func garrFlow(eps []*xport.Endpoint, size, msgs int) func(flow) [2]flowProc {
	n, elems := len(eps), size/8
	arrays := make([]*garr.Array, n)
	for i, sp := range xport.Spaces(eps, garr.Service) {
		a, err := garr.Attach(sp, 1, n*elems, n)
		if err != nil {
			panic(err)
		}
		arrays[i] = a
	}
	return func(fl flow) [2]flowProc {
		return [2]flowProc{{"origin", fl.src, func(p *sim.Proc) {
			fl.start = p.Now()
			vals := make([]float64, elems)
			for i := 0; i < msgs; i++ {
				// Global range [dst*elems, (dst+1)*elems) is dst's block:
				// each Put is one remote one-sided transfer over the cut.
				if err := arrays[fl.src].Put(p, fl.dst*elems, vals); err != nil {
					panic(err)
				}
			}
		}}, putTarget(arrays[fl.dst].Node(), msgs, fl)}
	}
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
func MeasureBisection(m xport.Machine, f Fabric, n, size, msgs int) BisectionPoint {
	pt := BisectionPoint{
		Fabric: f,
		// One uncontended flow across the cut is the switch-limited
		// baseline the contended number is compared against.
		FlowMBps: layerFlows(LayerXport, m, f, n, [][2]int{{0, n / 2}}, size, msgs),
		AggMBps:  LayerBisection(LayerXport, m, f, n, size, msgs),
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
		pt := MeasureBisection(xport.GenFM2.Machine(), f, cfg.BisectNodes, cfg.BisectSize, cfg.BisectMsgs)
		fmt.Fprintf(w, "  %-8s  %12.2f  %12.2f  %7.1fx  %5.0f%%  %s\n",
			pt.Fabric, pt.FlowMBps, pt.AggMBps, pt.Scaling, pt.Efficiency, pt.Regime)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Layering matrix under cut load (aggregate MB/s over %d flows, %d nodes;\n",
		cfg.MatrixNodes/2, cfg.MatrixNodes)
	fmt.Fprintln(w, "% = retained vs the same layer/binding on the single crossbar — the trunk-contention tax):")
	measure := func(l Layer, b xport.Gen, f Fabric) float64 {
		return LayerBisection(l, b.Machine(), f, cfg.MatrixNodes, cfg.MatrixSize, cfg.MatrixMsgs)
	}
	// The single-crossbar baseline is measured unconditionally so the
	// retained-% column stays meaningful whatever cfg.Fabrics contains.
	type key struct {
		l Layer
		b xport.Gen
	}
	base := map[key]float64{}
	for _, l := range AllLayers {
		for _, b := range AllGens {
			base[key{l, b}] = measure(l, b, FabSingle)
		}
	}
	for _, f := range cfg.Fabrics {
		fmt.Fprintf(w, "  %s\n", f)
		fmt.Fprintf(w, "    %-8s  %12s  %6s  %12s  %6s\n", "layer", "fm1 MB/s", "%", "fm2 MB/s", "%")
		for _, l := range AllLayers {
			fmt.Fprintf(w, "    %-8s", l)
			for _, b := range AllGens {
				v := base[key{l, b}]
				if f != FabSingle {
					v = measure(l, b, f)
				}
				pct := 0.0
				if bv := base[key{l, b}]; bv > 0 {
					pct = 100 * v / bv
				}
				fmt.Fprintf(w, "  %12.2f  %5.0f%%", v, pct)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Collective scaling across fabrics (%d B per rank, time per op in us, algo=auto):\n", cfg.Size)
	scfg := CollectiveScalingConfig{Ranks: cfg.Ranks, Size: cfg.Size}
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
