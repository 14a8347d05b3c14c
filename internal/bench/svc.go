package bench

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/svcload"
	"repro/internal/xport"
)

// The service-workload suite: datacenter RPC load over the FM fabrics,
// reported in VIRTUAL time. Every row is a deterministic function of
// (generation, mode, nodes) at the sweep's fixed request count and seed, so
// the rendered table is held byte for byte to cmd/fmbench/testdata/svc.golden.

// The sweep's fixed points: requests per client and the seed every arrival
// and key stream derives from.
const (
	svcRequests = 40
	svcSeed     = 1998
)

// svcWorkloads is the canonical workload of each arrival mode, in report
// order. Rates are set below saturation for the slower FM1 fabric so
// open-loop queues drain and the sweep's tail numbers measure the fabric,
// not an unbounded backlog (incast's is the epoch gap, not per-client
// pressure). Response sizes respect the tightest point of the grid: at 16
// nodes the ring clamp cuts FM1's credit window to 4 packets, so no reply may
// need more than 4 Sparc-MTU packets.
var svcWorkloads = []svcload.Workload{
	svcWorkload(svcload.Workload{Mode: svcload.ModeOpen, RateRPS: 20_000, Fanout: 2, Keyspace: 256, ZipfS: 1.1, RespBytes: 256}),
	svcWorkload(svcload.Workload{Mode: svcload.ModeClosed, Keyspace: 256, ZipfS: 1.1, RespBytes: 256}),
	svcWorkload(svcload.Workload{Mode: svcload.ModeIncast, RateRPS: 10_000, RespBytes: 384}),
}

// svcWorkload fills in what every mode's workload shares.
func svcWorkload(wl svcload.Workload) svcload.Workload {
	wl.Requests, wl.Seed, wl.ReqBytes = svcRequests, svcSeed, 64
	return wl
}

// WriteSvcReport runs the full grid — both generations, all three arrival
// modes, three fleet sizes (fat tree above 4 nodes) — and renders it in
// fixed order: generation-major (fm1 first), then mode, then fleet size.
func WriteSvcReport(w io.Writer) error {
	fmt.Fprintf(w, "Service-workload suite (virtual-time tail latency, seed %d, %d req/client):\n",
		svcSeed, svcRequests)
	fmt.Fprintf(w, "  %-4s %-7s %6s  %9s  %9s  %9s  %9s  %12s\n",
		"fm", "mode", "nodes", "p50_us", "p99_us", "p999_us", "max_us", "goodput_rps")
	for _, gen := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		for _, wl := range svcWorkloads {
			for _, n := range []int{4, 8, 16} {
				res, err := svcRun(gen.Machine(), n, svcFabric(n > 4), svcload.ServiceConfig{},
					func(f *svcload.Fleet) error { return f.Plan(wl) })
				if err != nil {
					return fmt.Errorf("bench: svc %s/%s/%d: %w", gen, wl.Mode, n, err)
				}
				if len(res.Errors) > 0 {
					return fmt.Errorf("bench: svc %s/%s/%d: %s", gen, wl.Mode, n, res.Errors[0])
				}
				fmt.Fprintf(w, "  %-4s %-7s %6d  %9.1f  %9.1f  %9.1f  %9.1f  %12.0f\n",
					gen, wl.Mode, n,
					float64(res.P50NS)/1e3, float64(res.P99NS)/1e3,
					float64(res.P999NS)/1e3, float64(res.MaxNS)/1e3, res.GoodputRPS)
			}
		}
	}
	return nil
}

// SvcCapture runs the canonical capture workload (FM 2.x, open loop, 8
// nodes) and writes its trace to w. The returned result is the report the
// replayed trace must reproduce exactly.
func SvcCapture(w io.Writer) (svcload.Result, error) {
	return svcRun(xport.GenFM2.Machine(), 8, FabFatTree, svcload.ServiceConfig{}, func(f *svcload.Fleet) error {
		if err := f.Plan(svcWorkloads[0]); err != nil {
			return err
		}
		return f.Capture(xport.GenFM2, true).Write(w)
	})
}

// SvcReplay reads a trace and replays it on a fresh machine built from the
// trace header: its generation, fleet size, fabric and service time.
func SvcReplay(r io.Reader) (svcload.Result, error) {
	t, err := svcload.ReadTrace(r)
	if err != nil {
		return svcload.Result{}, err
	}
	return svcRun(t.Gen().Machine(), t.Meta.Nodes, svcFabric(t.Meta.FatTree),
		svcload.ServiceConfig{ServiceTime: sim.Time(t.Meta.ServiceNS)}, func(f *svcload.Fleet) error {
			return f.PlanTrace(t)
		})
}

// svcFabric is the suite's fabric: the fat tree, or one crossbar.
func svcFabric(fatTree bool) Fabric {
	if fatTree {
		return FabFatTree
	}
	return FabSingle
}

// svcRun builds an n-node RPC fleet of machine m on fabric f, lets plan arm
// it, and runs it: one RunNode Proc per node, in node order. A trace names
// its own machine, so one that cannot be built is an error here, not the
// panic of a harness bug; so is a failed run.
func svcRun(m xport.Machine, n int, f Fabric, cfg svcload.ServiceConfig,
	plan func(*svcload.Fleet) error) (svcload.Result, error) {
	if err := m.Config(n, f).Validate(); err != nil {
		return svcload.Result{}, err
	}
	pl, eps := endpoints(m, n, f)
	fl := svcload.Attach(xport.Spaces(eps, svcload.Service), cfg)
	if err := plan(fl); err != nil {
		return svcload.Result{}, err
	}
	for node := 0; node < n; node++ {
		pl.K.Spawn(fmt.Sprintf("svc.%d", node), func(p *sim.Proc) { fl.RunNode(p, node) }).ActsFor(node)
	}
	if err := pl.Run(); err != nil {
		return svcload.Result{}, err
	}
	return fl.Result(), nil
}
