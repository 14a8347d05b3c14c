package svcload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
	"repro/internal/xport"
)

// mallocsPerRequest is the steady-state malloc cost of one request of wl: the
// difference between a long and a short run of the same workload — set-up,
// schedule and histograms cancel — over the difference in requests. A stray
// malloc in the short run can make the difference negative, which reads as
// zero cost, not as a wrapped uint64.
func mallocsPerRequest(t *testing.T, nodes int, wl Workload) float64 {
	t.Helper()
	run := func(requests int) uint64 {
		wl.Requests = requests
		return alloctest.MinMallocs(func() {
			if res := mustRun(t, machine{nodes: nodes}, wl); res.Completed != res.Planned {
				t.Fatalf("completed %d of %d", res.Completed, res.Planned)
			}
		})
	}
	const short, long = 50, 350
	return (float64(run(long)) - float64(run(short))) / float64(nodes*(long-short))
}

// TestWarmWindowZeroAlloc pins a running fleet's steady state to zero
// mallocs over both bindings: once a warm-up has grown every map, queue and
// free list, a window of virtual time in which every node issues, serves and
// gathers requests allocates nothing. A meter Proc sleeps through each window
// while the fleet runs; a per-request allocation would show up some forty
// times in every one.
func TestWarmWindowZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const nodes, warm, window = 4, 4 * sim.Millisecond, 2 * sim.Millisecond
	wl := Workload{Mode: ModeOpen, Requests: 100, RateRPS: 5_000, Fanout: 2, Keyspace: 64,
		ZipfS: 1.1, ReqBytes: 64, RespBytes: 256, Seed: 7}
	for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		t.Run(g.String(), func(t *testing.T) {
			pl, _, f := buildFleet(t, machine{gen: g, nodes: nodes})
			k := pl.K
			if err := f.Plan(wl); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < nodes; node++ {
				k.Spawn("node", func(p *sim.Proc) { f.RunNode(p, node) })
			}
			var allocs uint64
			var served int64
			k.Spawn("meter", func(p *sim.Proc) {
				p.Delay(warm)
				before := f.completed
				allocs = alloctest.MinMallocs(func() { p.Delay(window) })
				served = f.completed - before
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if res := f.Result(); res.Completed != res.Planned {
				t.Fatalf("completed %d of %d", res.Completed, res.Planned)
			}
			if served < alloctest.Windows*30 {
				t.Fatalf("only %d requests completed in the measured windows; the schedule ended too soon", served)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("a %v window of %d nodes' requests allocated %d times; steady state must be 0", window, nodes, allocs)
			}
		})
	}
}

// TestRequestAllocsPinned holds what a request costs in mallocs. Every
// sub-request passes the credit gate and every closed-loop request waits for
// its gather, and the conditions of those waits are handed to a wait that
// keeps them where the kernel's dispatcher can evaluate them: written as
// closures they escape, one malloc per wait: three per request on the closed
// workload, four on the gated one, where some of the gates are found shut.
// The measured figures are 0.007 and 0.11 (8.0 and 14.1 while headers and
// in-flight records were allocated per message); the bound is short of one
// malloc per request, let alone one wait's worth.
func TestRequestAllocsPinned(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	for _, c := range []struct {
		name  string
		wl    Workload
		bound float64
	}{
		{"closed", Workload{Mode: ModeClosed, Fanout: 2, Keyspace: 64, ZipfS: 1.1, ReqBytes: 64, RespBytes: 256, Seed: 7}, 0.5},
		{"gated", Workload{Mode: ModeOpen, RateRPS: 400_000, Fanout: 4, Keyspace: 64, ZipfS: 1.1, ReqBytes: 512, RespBytes: 1024, Seed: 7}, 0.5},
	} {
		if got := mallocsPerRequest(t, 4, c.wl); got > c.bound {
			t.Errorf("%s: %.2f mallocs per request in steady state, want at most %.1f", c.name, got, c.bound)
		} else {
			t.Logf("%s: %.3f mallocs per request", c.name, got)
		}
	}
}

// TestReadTraceAllocs pins what replaying a trace costs in mallocs: a record
// is decoded in place, so what remains is the header, the scanner's buffer
// and each client's schedule growing by append. 32 clients of 115 records,
// rpc-open's shape, measured 0.073 mallocs per record (4.07 while each
// record went through encoding/json).
func TestReadTraceAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const clients, requests = 32, 115
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"format":%q,"fm":"fm2","nodes":%d,"fat_tree":true,"mode":"open","seed":1,"requests":%d,"service_ns":2000}`+"\n",
		TraceFormat, clients, requests)
	for c := 0; c < clients; c++ {
		for seq := 0; seq < requests; seq++ {
			fmt.Fprintf(&b, `{"t_ns":%d,"client":%d,"seq":%d,"key":%d,"fanout":2,"req_b":64,"resp_b":512}`+"\n",
				1000*(seq+1)+c, c, seq, (seq*7+c)%1024)
		}
	}
	in := b.Bytes()
	got := float64(alloctest.MinMallocs(func() {
		if _, err := ReadTrace(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})) / (clients * requests)
	if got >= 0.1 {
		t.Errorf("ReadTrace took %.3f mallocs per record, want fewer than 0.1", got)
	} else {
		t.Logf("%.3f mallocs per record", got)
	}
}
