package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/garr"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/xport"
)

// Mixed-workload co-residency suite: MPI collectives, socket streams, and
// Global Arrays puts running SIMULTANEOUSLY on one shared endpoint per
// node — the paper's §4.2 claim (one messaging substrate, many
// simultaneous clients) measured rather than asserted. For each service
// the suite reports its byte share of the shared endpoints' traffic and
// the bandwidth it retained versus the same workload running alone
// (the isolated baseline), across fabrics.

// MixedConfig parameterizes the co-residency suite.
type MixedConfig struct {
	Fabrics []Fabric
	Nodes   int
	// MPI workload: all ranks allreduce MPISize bytes, MPIIters rounds.
	MPISize, MPIIters int
	// Socket workload: n/2 cut pairs stream SockMsgs segments of SockSize.
	SockSize, SockMsgs int
	// GA workload: every rank puts GAElems float64s into its right
	// neighbor's block, GAPuts times.
	GAElems, GAPuts int
}

// DefaultMixedConfig is the configuration behind fmbench -mixed.
func DefaultMixedConfig() MixedConfig {
	return MixedConfig{
		Fabrics: []Fabric{FabSingle, FabFatTree},
		Nodes:   8,
		MPISize: 1024, MPIIters: 6,
		SockSize: 4096, SockMsgs: 40,
		GAElems: 256, GAPuts: 25,
	}
}

// ServiceShare is one service's slice of a mixed run.
type ServiceShare struct {
	Service  string
	Bytes    int64   // payload bytes the service consumed across all nodes
	SharePct float64 // Bytes as % of all services' consumed bytes
	MBps     float64 // workload goodput in the mixed run
	SoloMBps float64 // the same workload alone on the same fabric
	// RetainedPct is 100 * MBps / SoloMBps: how much of its isolated
	// bandwidth the workload kept while sharing the endpoint — the
	// interference cost of co-residency.
	RetainedPct float64
}

// mixedWorkload is one co-resident client of the shared endpoints: a row
// of mixedWorkloads.
type mixedWorkload struct {
	service string
	// bytes is the workload's logical payload volume, the numerator of its
	// goodput.
	bytes func(cfg MixedConfig) int64
	// start registers the service on every endpoint and spawns the
	// workload's procs; those t counts call t.done as they finish.
	start func(k *sim.Kernel, eps []*xport.Endpoint, cfg MixedConfig, t *tally)
}

// mixedWorkloads is the co-residency suite. Table order is the canonical
// service registration order and the spawn order.
var mixedWorkloads = []mixedWorkload{
	{mpifm.Service, func(cfg MixedConfig) int64 {
		return int64(cfg.Nodes) * int64(cfg.MPIIters) * int64(cfg.MPISize)
	}, startMixedMPI},
	{sockfm.Service, func(cfg MixedConfig) int64 {
		return int64(cfg.Nodes/2) * int64(cfg.SockMsgs) * int64(cfg.SockSize)
	}, startMixedSock},
	{garr.Service, func(cfg MixedConfig) int64 {
		return int64(cfg.Nodes) * int64(cfg.GAPuts) * int64(cfg.GAElems) * 8
	}, startMixedGA},
}

// tally is one workload's result in a run: its participants counted down,
// the instant the last one finished, and the payload bytes its service
// consumed across all nodes.
type tally struct {
	left  int
	end   sim.Time
	bytes int64
}

func (t *tally) done(p *sim.Proc) {
	if t.left--; t.left == 0 {
		t.end = p.Now()
	}
}

func startMixedMPI(k *sim.Kernel, eps []*xport.Endpoint, cfg MixedConfig, t *tally) {
	comms := attachMPI(eps, mpifm.Options{})
	t.left = len(comms)
	for r, c := range comms {
		k.Spawn(fmt.Sprintf("mixed.mpi%d", r), func(p *sim.Proc) {
			in := make([]byte, cfg.MPISize)
			out := make([]byte, cfg.MPISize)
			for i := 0; i < cfg.MPIIters; i++ {
				if err := c.Allreduce(p, in, out, mpifm.OpSumU32); err != nil {
					panic(fmt.Sprintf("bench: mixed allreduce: %v", err))
				}
			}
			t.done(p)
		}).ActsFor(r)
	}
}

func startMixedSock(k *sim.Kernel, eps []*xport.Endpoint, cfg MixedConfig, t *tally) {
	stacks := make([]*sockfm.Stack, len(eps))
	for i, ep := range eps {
		stacks[i] = sockfm.New(ep.Register(sockfm.Service))
	}
	pairs := cutPairs(len(eps))
	total := cfg.SockSize * cfg.SockMsgs
	t.left = len(pairs)
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		k.Spawn(fmt.Sprintf("mixed.sockServer%d", dst), func(p *sim.Proc) {
			l, err := stacks[dst].Listen(80)
			if err != nil {
				panic(err)
			}
			conn, err := l.Accept(p)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 32*1024)
			got := 0
			for got < total {
				m, err := conn.Read(p, buf)
				if err != nil {
					panic(err)
				}
				got += m
			}
			t.done(p)
		}).ActsFor(dst)
		k.Spawn(fmt.Sprintf("mixed.sockClient%d", src), func(p *sim.Proc) {
			conn, err := stacks[src].Dial(p, dst, 80)
			if err != nil {
				panic(err)
			}
			msg := make([]byte, cfg.SockSize)
			for i := 0; i < cfg.SockMsgs; i++ {
				if _, err := conn.Write(p, msg); err != nil {
					panic(err)
				}
			}
			conn.Close(p)
		}).ActsFor(src)
	}
}

func startMixedGA(k *sim.Kernel, eps []*xport.Endpoint, cfg MixedConfig, t *tally) {
	n := len(eps)
	arrays := make([]*garr.Array, n)
	for i, ep := range eps {
		a, err := garr.Attach(ep.Register(garr.Service), 1, n*cfg.GAElems, n)
		if err != nil {
			panic(fmt.Sprintf("bench: mixed ga attach: %v", err))
		}
		arrays[i] = a
	}
	t.left = n
	for r, a := range arrays {
		k.Spawn(fmt.Sprintf("mixed.ga%d", r), func(p *sim.Proc) {
			vals := make([]float64, cfg.GAElems)
			for i := range vals {
				vals[i] = float64(r*31 + i)
			}
			dst := (r + 1) % n
			for i := 0; i < cfg.GAPuts; i++ {
				if err := a.Put(p, dst*cfg.GAElems, vals); err != nil {
					panic(fmt.Sprintf("bench: mixed ga put: %v", err))
				}
			}
			t.done(p)
			// Keep serving incoming puts until every origin has been
			// acknowledged: a node whose procs all exited would strand
			// its peers' Quiet.
			for t.left > 0 {
				a.Progress(p)
				p.Delay(2 * sim.Microsecond)
			}
		}).ActsFor(r)
	}
}

// runMixed assembles shared endpoints of machine m on fabric f and drives
// the selected workloads concurrently, started in table order, so a solo
// run is the same code with two rows absent.
func runMixed(m xport.Machine, f Fabric, cfg MixedConfig, sel []mixedWorkload) []tally {
	pl, eps := endpoints(m, cfg.Nodes, f)
	tallies := make([]tally, len(sel))
	for i, wl := range sel {
		wl.start(pl.K, eps, cfg, &tallies[i])
	}
	run(pl, "mixed run on %s/%s", m.Gen, f)
	for i, wl := range sel {
		for _, ep := range eps {
			tallies[i].bytes += ep.ServiceStats(wl.service).Bytes
		}
	}
	return tallies
}

// MeasureMixed runs the full co-resident mix on machine m and fabric f, then
// each workload alone on identical fabric and endpoints, and reports
// per-service shares and retained bandwidth.
func MeasureMixed(m xport.Machine, f Fabric, cfg MixedConfig) []ServiceShare {
	mixed := runMixed(m, f, cfg, mixedWorkloads)
	var total int64
	for _, t := range mixed {
		total += t.bytes
	}
	shares := make([]ServiceShare, len(mixedWorkloads))
	for i, wl := range mixedWorkloads {
		solo := runMixed(m, f, cfg, mixedWorkloads[i:i+1])
		s := ServiceShare{
			Service:  wl.service,
			Bytes:    mixed[i].bytes,
			MBps:     sim.MBps(wl.bytes(cfg), mixed[i].end),
			SoloMBps: sim.MBps(wl.bytes(cfg), solo[0].end),
		}
		if total > 0 {
			s.SharePct = 100 * float64(s.Bytes) / float64(total)
		}
		if s.SoloMBps > 0 {
			s.RetainedPct = 100 * s.MBps / s.SoloMBps
		}
		shares[i] = s
	}
	return shares
}

// WriteMixedReport renders the co-residency suite across the configured
// fabrics: per-service byte share of the shared endpoints and bandwidth
// retained against the isolated baselines.
func WriteMixedReport(w io.Writer, m xport.Machine, cfg MixedConfig) {
	kb := make([]string, len(mixedWorkloads))
	for i, wl := range mixedWorkloads {
		kb[i] = strconv.FormatInt(wl.bytes(cfg)/1024, 10)
	}
	fmt.Fprintf(w, "Mixed co-residency suite: MPI allreduce + socket streams + GA puts on ONE\n")
	fmt.Fprintf(w, "shared %s endpoint per node (%d nodes; mpi %d B x %d rounds, sock %d x %d B\n",
		m.Gen, cfg.Nodes, cfg.MPISize, cfg.MPIIters, cfg.SockMsgs, cfg.SockSize)
	fmt.Fprintf(w, "per cut pair, ga %d puts x %d elems per rank; workload volumes %s KB)\n",
		cfg.GAPuts, cfg.GAElems, strings.Join(kb, "/"))
	fmt.Fprintln(w, "retained% = goodput while sharing / goodput alone on the same fabric")
	for _, f := range cfg.Fabrics {
		fmt.Fprintf(w, "  %s\n", f)
		fmt.Fprintf(w, "    %-8s  %10s  %6s  %12s  %12s  %9s\n",
			"service", "bytes", "share", "mixed MB/s", "solo MB/s", "retained")
		for _, s := range MeasureMixed(m, f, cfg) {
			fmt.Fprintf(w, "    %-8s  %10d  %5.1f%%  %12.2f  %12.2f  %8.0f%%\n",
				s.Service, s.Bytes, s.SharePct, s.MBps, s.SoloMBps, s.RetainedPct)
		}
	}
}
