package bench

import (
	"fmt"
	"io"

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

// mixedServices selects which workloads a run attaches.
type mixedServices struct{ mpi, sock, ga bool }

// mixedResult carries one run's per-workload completion spans and the
// per-service byte totals.
type mixedResult struct {
	mpiEnd, sockEnd, gaEnd sim.Time
	bytes                  map[string]int64
}

// runMixed assembles shared endpoints on (b, f) and drives the selected
// workloads concurrently. Service registration order is canonical (mpi,
// sockets, garr) and skipped services simply do not register, so solo runs
// are the same code with two workloads absent.
func runMixed(b xport.Gen, f Fabric, cfg MixedConfig, sel mixedServices) mixedResult {
	n := cfg.Nodes
	pl, eps := endpoints(b, n, f, 0)
	k := pl.K

	var comms []*mpifm.Comm
	var stacks []*sockfm.Stack
	var arrays []*garr.Array
	if sel.mpi {
		comms = attachMPI(eps, b, mpifm.Options{})
	}
	if sel.sock {
		stacks = make([]*sockfm.Stack, n)
		for i, ep := range eps {
			stacks[i] = sockfm.New(ep.Register(sockfm.Service))
		}
	}
	if sel.ga {
		arrays = make([]*garr.Array, n)
		for i, ep := range eps {
			a, err := garr.Attach(ep.Register(garr.Service), 1, n*cfg.GAElems, n)
			if err != nil {
				panic(fmt.Sprintf("bench: mixed ga attach: %v", err))
			}
			arrays[i] = a
		}
	}

	res := mixedResult{bytes: make(map[string]int64)}

	if sel.mpi {
		mpiDone := 0
		for r := 0; r < n; r++ {
			r := r
			k.Spawn(fmt.Sprintf("mixed.mpi%d", r), func(p *sim.Proc) {
				in := make([]byte, cfg.MPISize)
				out := make([]byte, cfg.MPISize)
				for i := 0; i < cfg.MPIIters; i++ {
					if err := comms[r].Allreduce(p, in, out, mpifm.OpSumU32); err != nil {
						panic(fmt.Sprintf("bench: mixed allreduce: %v", err))
					}
				}
				mpiDone++
				if mpiDone == n && p.Now() > res.mpiEnd {
					res.mpiEnd = p.Now()
				}
			})
		}
	}

	if sel.sock {
		pairs := cutPairs(n)
		total := cfg.SockSize * cfg.SockMsgs
		sockDone := 0
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
				sockDone++
				if sockDone == len(pairs) && p.Now() > res.sockEnd {
					res.sockEnd = p.Now()
				}
			})
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
			})
		}
	}

	if sel.ga {
		gaDone := 0
		for r := 0; r < n; r++ {
			r := r
			k.Spawn(fmt.Sprintf("mixed.ga%d", r), func(p *sim.Proc) {
				vals := make([]float64, cfg.GAElems)
				for i := range vals {
					vals[i] = float64(r*31 + i)
				}
				dst := (r + 1) % n
				for i := 0; i < cfg.GAPuts; i++ {
					if err := arrays[r].Put(p, dst*cfg.GAElems, vals); err != nil {
						panic(fmt.Sprintf("bench: mixed ga put: %v", err))
					}
				}
				gaDone++
				if gaDone == n && p.Now() > res.gaEnd {
					res.gaEnd = p.Now()
				}
				// Keep serving incoming puts until every origin has been
				// acknowledged: a node whose procs all exited would strand
				// its peers' Quiet.
				for gaDone < n {
					arrays[r].Progress(p)
					p.Delay(2 * sim.Microsecond)
				}
			})
		}
	}

	run(pl, "mixed run on %s/%s", b, f)
	for _, svc := range []string{mpifm.Service, sockfm.Service, garr.Service} {
		for _, ep := range eps {
			res.bytes[svc] += ep.ServiceStats(svc).Bytes
		}
	}
	return res
}

// workloadBytes reports each workload's logical payload volume, the
// numerator of its goodput.
func (cfg MixedConfig) workloadBytes() (mpi, sock, ga int64) {
	n := int64(cfg.Nodes)
	mpi = n * int64(cfg.MPIIters) * int64(cfg.MPISize)
	sock = (n / 2) * int64(cfg.SockMsgs) * int64(cfg.SockSize)
	ga = n * int64(cfg.GAPuts) * int64(cfg.GAElems) * 8
	return
}

// MeasureMixed runs the full co-resident mix on (b, f), then each workload
// alone on identical fabric and endpoints, and reports per-service shares
// and retained bandwidth.
func MeasureMixed(b xport.Gen, f Fabric, cfg MixedConfig) []ServiceShare {
	mixed := runMixed(b, f, cfg, mixedServices{mpi: true, sock: true, ga: true})
	soloMPI := runMixed(b, f, cfg, mixedServices{mpi: true})
	soloSock := runMixed(b, f, cfg, mixedServices{sock: true})
	soloGA := runMixed(b, f, cfg, mixedServices{ga: true})

	mpiB, sockB, gaB := cfg.workloadBytes()
	var total int64
	for _, v := range mixed.bytes {
		total += v
	}
	mk := func(svc string, payload int64, mixedEnd, soloEnd sim.Time) ServiceShare {
		s := ServiceShare{
			Service:  svc,
			Bytes:    mixed.bytes[svc],
			MBps:     Elapsed(payload, mixedEnd),
			SoloMBps: Elapsed(payload, soloEnd),
		}
		if total > 0 {
			s.SharePct = 100 * float64(s.Bytes) / float64(total)
		}
		if s.SoloMBps > 0 {
			s.RetainedPct = 100 * s.MBps / s.SoloMBps
		}
		return s
	}
	return []ServiceShare{
		mk(mpifm.Service, mpiB, mixed.mpiEnd, soloMPI.mpiEnd),
		mk(sockfm.Service, sockB, mixed.sockEnd, soloSock.sockEnd),
		mk(garr.Service, gaB, mixed.gaEnd, soloGA.gaEnd),
	}
}

// WriteMixedReport renders the co-residency suite across the configured
// fabrics: per-service byte share of the shared endpoints and bandwidth
// retained against the isolated baselines.
func WriteMixedReport(w io.Writer, b xport.Gen, cfg MixedConfig) {
	mpiB, sockB, gaB := cfg.workloadBytes()
	fmt.Fprintf(w, "Mixed co-residency suite: MPI allreduce + socket streams + GA puts on ONE\n")
	fmt.Fprintf(w, "shared %s endpoint per node (%d nodes; mpi %d B x %d rounds, sock %d x %d B\n",
		b, cfg.Nodes, cfg.MPISize, cfg.MPIIters, cfg.SockMsgs, cfg.SockSize)
	fmt.Fprintf(w, "per cut pair, ga %d puts x %d elems per rank; workload volumes %d/%d/%d KB)\n",
		cfg.GAPuts, cfg.GAElems, mpiB/1024, sockB/1024, gaB/1024)
	fmt.Fprintln(w, "retained% = goodput while sharing / goodput alone on the same fabric")
	for _, f := range cfg.Fabrics {
		fmt.Fprintf(w, "  %s\n", f)
		fmt.Fprintf(w, "    %-8s  %10s  %6s  %12s  %12s  %9s\n",
			"service", "bytes", "share", "mixed MB/s", "solo MB/s", "retained")
		for _, s := range MeasureMixed(b, f, cfg) {
			fmt.Fprintf(w, "    %-8s  %10d  %5.1f%%  %12.2f  %12.2f  %8.0f%%\n",
				s.Service, s.Bytes, s.SharePct, s.MBps, s.SoloMBps, s.RetainedPct)
		}
	}
}
