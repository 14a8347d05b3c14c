package bench

import (
	"fmt"
	"io"

	"repro/internal/svcload"
	"repro/internal/xport"
)

// The service-workload suite: datacenter RPC load over the FM fabrics,
// reported in VIRTUAL time. Every row is a deterministic function of
// (generation, mode, nodes, requests, seed) — two invocations at the same
// seed must render byte-identical tables and JSON, which is what the CI
// svcload smoke job diffs.

// SvcSchema identifies the JSON report layout.
const SvcSchema = "fmnet-svc/1"

// SvcResult re-exports the workload report for the CLI.
type SvcResult = svcload.Result

// SvcRow is one sweep point: a full workload run on one generation, mode,
// and fleet size. Latency fields are integer nanoseconds straight from the
// merged histogram, so rows carry no float formatting hazards beyond the
// goodput ratio.
type SvcRow struct {
	Gen      string `json:"fm"`
	Mode     string `json:"mode"`
	Nodes    int    `json:"nodes"`
	Requests int    `json:"requests"` // per client
	Fanout   int    `json:"fanout"`

	Completed  int64   `json:"completed"`
	SubReqs    int64   `json:"sub_requests"`
	HotServed  int64   `json:"hot_served"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	P999NS     int64   `json:"p999_ns"`
	MaxNS      int64   `json:"max_ns"`
	GoodputRPS float64 `json:"goodput_rps"`
}

// SvcReport is the machine-readable sweep written by fmbench -svcjson.
type SvcReport struct {
	Schema   string   `json:"schema"`
	Seed     int64    `json:"seed"`
	Requests int      `json:"requests"`
	Rows     []SvcRow `json:"rows"`
}

// SvcConfig shapes the sweep.
type SvcConfig struct {
	Ranks    []int // fleet sizes (fat tree above 4 nodes)
	Requests int   // per-client request count
	Seed     int64
}

// DefaultSvcConfig is the committed sweep: both generations, all three
// arrival modes, three fleet sizes.
func DefaultSvcConfig() SvcConfig {
	return SvcConfig{Ranks: []int{4, 8, 16}, Requests: 40, Seed: 1998}
}

// svcWorkload builds the canonical workload for one arrival mode. Rates are
// set below saturation for the slower FM1 fabric so open-loop queues drain
// and the sweep's tail numbers measure the fabric, not an unbounded backlog.
// Response sizes respect the tightest point of the grid: at 16 nodes the
// ring clamp cuts FM1's credit window to 4 packets, so no reply may need
// more than 4 Sparc-MTU packets.
func svcWorkload(mode svcload.Mode, requests int, seed int64) svcload.Workload {
	wl := svcload.Workload{
		Mode:     mode,
		Requests: requests,
		Seed:     seed,
		ReqBytes: 64,
	}
	switch mode {
	case svcload.ModeOpen:
		wl.RateRPS = 20_000
		wl.Fanout = 2
		wl.Keyspace = 256
		wl.ZipfS = 1.1
		wl.RespBytes = 256
	case svcload.ModeClosed:
		wl.Keyspace = 256
		wl.ZipfS = 1.1
		wl.RespBytes = 256
	case svcload.ModeIncast:
		wl.RateRPS = 10_000 // epoch gap, not per-client pressure
		wl.RespBytes = 384
	}
	return wl
}

// SvcSweep runs the full grid and returns its rows in fixed order:
// generation-major (fm1 first), then mode, then fleet size.
func SvcSweep(cfg SvcConfig) ([]SvcRow, error) {
	var rows []SvcRow
	for _, gen := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		for _, mode := range []svcload.Mode{svcload.ModeOpen, svcload.ModeClosed, svcload.ModeIncast} {
			for _, n := range cfg.Ranks {
				res, err := svcload.Run(svcload.RunConfig{
					Gen:      gen,
					Nodes:    n,
					FatTree:  n > 4,
					Workload: svcWorkload(mode, cfg.Requests, cfg.Seed),
				})
				if err != nil {
					return nil, fmt.Errorf("bench: svc %s/%s/%d: %w", gen, mode, n, err)
				}
				if len(res.Errors) > 0 {
					return nil, fmt.Errorf("bench: svc %s/%s/%d: %s", gen, mode, n, res.Errors[0])
				}
				rows = append(rows, SvcRow{
					Gen: gen.String(), Mode: string(mode), Nodes: n,
					Requests: cfg.Requests, Fanout: int(res.SubRequests / max64(res.Issued, 1)),
					Completed: res.Completed, SubReqs: res.SubRequests,
					HotServed: res.HotServed,
					P50NS:     res.P50NS, P99NS: res.P99NS, P999NS: res.P999NS,
					MaxNS: res.MaxNS, GoodputRPS: res.GoodputRPS,
				})
			}
		}
	}
	return rows, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// WriteSvcReport renders the sweep as a table and, when jsonPath is
// non-empty, writes the machine-readable report.
func WriteSvcReport(w io.Writer, cfg SvcConfig, jsonPath string) error {
	fmt.Fprintf(w, "Service-workload suite (virtual-time tail latency, seed %d, %d req/client):\n",
		cfg.Seed, cfg.Requests)
	fmt.Fprintf(w, "  %-4s %-7s %6s  %9s  %9s  %9s  %9s  %12s\n",
		"fm", "mode", "nodes", "p50_us", "p99_us", "p999_us", "max_us", "goodput_rps")
	rows, err := SvcSweep(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4s %-7s %6d  %9.1f  %9.1f  %9.1f  %9.1f  %12.0f\n",
			r.Gen, r.Mode, r.Nodes,
			float64(r.P50NS)/1e3, float64(r.P99NS)/1e3,
			float64(r.P999NS)/1e3, float64(r.MaxNS)/1e3, r.GoodputRPS)
	}
	if jsonPath == "" {
		return nil
	}
	return writeJSONFile(w, jsonPath, SvcReport{Schema: SvcSchema, Seed: cfg.Seed, Requests: cfg.Requests, Rows: rows})
}

// SvcCapture runs the canonical capture workload (FM 2.x, open loop, 8
// nodes) and writes its trace to w. The returned result is the report the
// replayed trace must reproduce exactly.
func SvcCapture(requests int, seed int64, w io.Writer) (svcload.Result, error) {
	return svcload.Run(svcload.RunConfig{
		Gen:       xport.GenFM2,
		Nodes:     8,
		FatTree:   true,
		Workload:  svcWorkload(svcload.ModeOpen, requests, seed),
		CaptureTo: w,
	})
}

// SvcReplay reads a trace and replays it on a fresh cluster built from the
// trace header.
func SvcReplay(r io.Reader) (svcload.Result, error) {
	t, err := svcload.ReadTrace(r)
	if err != nil {
		return svcload.Result{}, err
	}
	return svcload.RunTrace(t)
}
