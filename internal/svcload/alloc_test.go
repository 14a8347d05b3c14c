package svcload

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// mallocsPerRequest is the steady-state malloc cost of one request of wl: the
// difference between a long and a short run of the same workload — set-up,
// schedule and histograms cancel — over the difference in requests.
func mallocsPerRequest(t *testing.T, nodes int, wl Workload) float64 {
	t.Helper()
	run := func(requests int) uint64 {
		wl.Requests = requests
		return alloctest.MinMallocs(func() {
			if res := mustRun(t, RunConfig{Nodes: nodes, Workload: wl}); res.Completed != res.Planned {
				t.Fatalf("completed %d of %d", res.Completed, res.Planned)
			}
		})
	}
	const short, long = 50, 350
	return float64(run(long)-run(short)) / float64(nodes*(long-short))
}

// TestRequestAllocsPinned holds what a request costs in mallocs. Every
// sub-request passes the credit gate and every closed-loop request waits for
// its gather, and the conditions of those waits are handed to a wait that
// keeps them where the kernel's dispatcher can evaluate them: written as
// closures they escape, one malloc per wait: three per request on the closed
// workload, four on the gated one, where some of the gates are found shut.
// The bounds are the measured figures — 8.0 and 14.1; before the reply queue
// stopped regrowing its backing the first was 9.9 — plus slack for the
// runtime, well short of one wait's worth.
func TestRequestAllocsPinned(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	for _, c := range []struct {
		name  string
		wl    Workload
		bound float64
	}{
		{"closed", Workload{Mode: ModeClosed, Fanout: 2, Keyspace: 64, ZipfS: 1.1, ReqBytes: 64, RespBytes: 256, Seed: 7}, 8.5},
		{"gated", Workload{Mode: ModeOpen, RateRPS: 400_000, Fanout: 4, Keyspace: 64, ZipfS: 1.1, ReqBytes: 512, RespBytes: 1024, Seed: 7}, 14.8},
	} {
		if got := mallocsPerRequest(t, 4, c.wl); got > c.bound {
			t.Errorf("%s: %.2f mallocs per request in steady state, want at most %.1f", c.name, got, c.bound)
		} else {
			t.Logf("%s: %.3f mallocs per request", c.name, got)
		}
	}
}
