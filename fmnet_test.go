// Public-API tests: the Session façade assembles shared endpoints and
// co-resident services entirely through the fmnet surface.
package fmnet_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	fmnet "repro"
	"repro/internal/alloctest"
	"repro/internal/sim"
)

// TestSessionMPI: the smallest public program — an MPI ring over a shared
// endpoint per node.
func TestSessionMPI(t *testing.T) {
	s, err := fmnet.New(fmnet.Nodes(4), fmnet.WithMPI())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, s.Nodes())
	s.SpawnRanks("ring", func(rank int, p *fmnet.Proc) {
		c := s.MPI(rank)
		right := (rank + 1) % s.Nodes()
		left := (rank + s.Nodes() - 1) % s.Nodes()
		buf := make([]byte, 8)
		req, err := c.Irecv(p, buf, left, 1)
		if err != nil {
			t.Error(err)
			return
		}
		msg := bytes.Repeat([]byte{byte(rank)}, 8)
		if err := c.Send(p, msg, right, 1); err != nil {
			t.Error(err)
			return
		}
		c.Wait(p, req)
		got[rank] = buf
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < s.Nodes(); r++ {
		left := (r + s.Nodes() - 1) % s.Nodes()
		if got[r][0] != byte(left) {
			t.Errorf("rank %d got %d from left, want %d", r, got[r][0], left)
		}
	}
}

// TestSessionCoResidentServices: the issue's headline construction — a
// fat-tree session with MPI, sockets, shmem, and a global array all
// co-resident — runs a workload on each service from one handle.
func TestSessionCoResidentServices(t *testing.T) {
	s, err := fmnet.New(
		fmnet.Nodes(8),
		fmnet.Topology(fmnet.FatTree),
		fmnet.FM2(),
		fmnet.WithMPI(),
		fmnet.WithSockets(),
		fmnet.WithShmem(),
		fmnet.WithGlobalArray(128),
	)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Nodes()
	for node := 0; node < n; node++ {
		s.Shmem(node).Register(7, make([]byte, 1024))
	}

	// MPI barrier+allreduce on every rank.
	mpiOK := make([]bool, n)
	shmemDone := false
	s.SpawnRanks("mpi", func(rank int, p *fmnet.Proc) {
		if err := s.MPI(rank).Barrier(p); err != nil {
			t.Error(err)
			return
		}
		mpiOK[rank] = true
	})

	// Socket stream 0 -> 1.
	var sockGot bytes.Buffer
	s.Spawn("server", func(p *fmnet.Proc) {
		l, err := s.Sockets(1).Listen(9)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 512)
		for {
			m, err := conn.Read(p, buf)
			sockGot.Write(buf[:m])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	s.Spawn("client", func(p *fmnet.Proc) {
		conn, err := s.Sockets(0).Dial(p, 1, 9)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(p, []byte("co-resident stream")); err != nil {
			t.Error(err)
		}
		conn.Close(p)
	})

	// Shmem put 2 -> 3 and GA put into rank 4's block.
	s.Spawn("onesided", func(p *fmnet.Proc) {
		if err := s.Shmem(2).Put(p, 3, 7, 64, []byte("one-sided")); err != nil {
			t.Error(err)
		}
		s.Shmem(2).Quiet(p)
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = float64(i) + 0.25
		}
		lo, _ := s.Array(4).LocalBounds()
		if err := s.Array(0).Put(p, lo, vals); err != nil {
			t.Error(err)
		}
		shmemDone = true
	})
	s.Spawn("serve3", func(p *fmnet.Proc) {
		for !shmemDone {
			s.Shmem(3).Progress(p)
			s.Array(4).Progress(p)
			p.Delay(2 * fmnet.Microsecond)
		}
	})

	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for r, ok := range mpiOK {
		if !ok {
			t.Errorf("rank %d missed the barrier", r)
		}
	}
	if sockGot.String() != "co-resident stream" {
		t.Errorf("socket stream got %q", sockGot.String())
	}
	if got := s.Shmem(3).Region(7)[64:73]; string(got) != "one-sided" {
		t.Errorf("shmem region got %q", got)
	}
	if v := s.Array(4).Local()[2]; v != 2.25 {
		t.Errorf("ga block got %g", v)
	}
	// Every service accounted traffic on the shared endpoints.
	for _, svc := range []string{"mpi", "sockets", "shmem", "garr"} {
		var total int64
		for node := 0; node < n; node++ {
			total += s.Endpoint(node).ServiceStats(svc).Bytes
		}
		if total == 0 {
			t.Errorf("service %q consumed no bytes on any endpoint", svc)
		}
	}
}

// TestSessionCustomService: WithService gives raw FM 2.x-style streaming
// handlers through the public surface.
func TestSessionCustomService(t *testing.T) {
	s, err := fmnet.New(fmnet.Nodes(2), fmnet.WithService("echo"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	s.Space(1, "echo").Register(5, func(p *fmnet.Proc, str fmnet.RecvStream) {
		got = make([]byte, str.Length())
		str.Receive(p, got)
	})
	s.Spawn("send", func(p *fmnet.Proc) {
		if err := fmnet.SendGather(p, s.Space(0, "echo"), 1, 5, []byte("hdr:"), []byte("payload")); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("recv", func(p *fmnet.Proc) {
		for got == nil {
			s.Endpoint(1).Extract(p, 0)
			p.Delay(fmnet.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hdr:payload" {
		t.Errorf("custom service got %q", got)
	}
}

// TestSessionErrors: the façade returns errors, never panics.
func TestSessionErrors(t *testing.T) {
	if _, err := fmnet.New(fmnet.Nodes(4)); err == nil {
		t.Error("no-service session accepted")
	}
	if _, err := fmnet.New(fmnet.Nodes(4), fmnet.Topology(fmnet.Pair), fmnet.WithMPI()); err == nil {
		t.Error("4-node pair accepted")
	}
	if _, err := fmnet.New(fmnet.Nodes(1), fmnet.WithMPI()); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, err := fmnet.New(fmnet.Nodes(2), fmnet.WithMPI(), fmnet.WithService("mpi")); err == nil {
		t.Error("reserved service name accepted")
	}
	if _, err := fmnet.New(fmnet.Nodes(2), fmnet.WithService("a"), fmnet.WithService("a")); err == nil {
		t.Error("duplicate service name accepted")
	}
	// 2050 = 2 x 1025: no hosts-per-edge count brings the edge switches
	// under one spine's 256 ports.
	if _, err := fmnet.New(fmnet.Nodes(2050), fmnet.Topology(fmnet.FatTree), fmnet.WithMPI()); err == nil {
		t.Error("fat tree with 1025 edge switches accepted")
	}
	// A legal torus shape, but node IDs travel in 16-bit header fields: the
	// error must come back before 70 000 hosts and NICs are built.
	if _, err := fmnet.New(fmnet.Nodes(70000), fmnet.Topology(fmnet.Torus), fmnet.WithMPI()); err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Errorf("70000-node torus: err = %v, want one naming the 16-bit node field", err)
	}
	// Options out of range are errors, not silently dropped.
	if _, err := fmnet.New(fmnet.WithGlobalArray(-5)); err == nil {
		t.Error("negative global-array size accepted")
	}
	// A block past what a shmem region addresses is an error before anything
	// is allocated: not an out-of-memory abort, a makeslice panic, or an
	// overflowed block size.
	for _, size := range []int{1 << 40, 1 << 61, math.MaxInt} {
		if _, err := fmnet.New(fmnet.Nodes(2), fmnet.WithGlobalArray(size)); err == nil || !strings.Contains(err.Error(), "region addresses at most") {
			t.Errorf("WithGlobalArray(%d): err = %v, want one naming the region bound", size, err)
		}
	}
	// shmem's header carries 32-bit offsets: one past them would wrap.
	s, err := fmnet.New(fmnet.Nodes(2), fmnet.WithShmem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s.Shmem(i).Register(1, make([]byte, 8))
	}
	var putErr, getErr error
	s.Spawn("far", func(p *fmnet.Proc) {
		putErr = s.Shmem(0).Put(p, 1, 1, 1<<32, []byte{1})
		getErr = s.Shmem(0).Get(p, 1, 1, 1<<32, make([]byte, 1))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if putErr == nil || getErr == nil {
		t.Errorf("shmem at offset 1<<32: Put err = %v, Get err = %v; want both refused", putErr, getErr)
	}
	if _, err := fmnet.New(fmnet.WithMPI(), fmnet.WithParallel(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	if _, err := fmnet.New(fmnet.WithRPC(fmnet.RPCConfig{ServiceTime: -5})); err == nil {
		t.Error("negative RPC service time accepted")
	}
	// More services than an endpoint's handler-ID slabs hold.
	opts := []fmnet.Option{fmnet.WithMPI()}
	for i := 0; i < 2000; i++ {
		opts = append(opts, fmnet.WithService(fmt.Sprintf("svc%d", i)))
	}
	if _, err := fmnet.New(opts...); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("2001 services: err = %v, want one naming the bound", err)
	}
}

// TestWithParallelIsIgnored: WithParallel is a deprecated no-op. A session
// with it runs exactly as one without it, on any topology, and the fabric
// reports the one-kernel certificate.
func TestWithParallelIsIgnored(t *testing.T) {
	run := func(topo fmnet.Topo, opts ...fmnet.Option) (string, *fmnet.Session) {
		t.Helper()
		s, err := fmnet.New(append([]fmnet.Option{fmnet.Nodes(16), fmnet.Topology(topo), fmnet.WithMPI()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]fmnet.Time, s.Nodes())
		s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) {
			in, out := make([]byte, 256), make([]byte, 256)
			for i := 0; i < 3; i++ {
				if err := s.MPI(rank).Allreduce(p, in, out, fmnet.OpSumU32); err != nil {
					t.Error(err)
				}
			}
			ends[rank] = p.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("ends %v events %d census %+v", ends, s.Kernel().Events(), s.Kernel().Census()), s
	}
	for _, topo := range []fmnet.Topo{fmnet.SingleSwitch, fmnet.FatTree} {
		want, _ := run(topo)
		got, s := run(topo, fmnet.WithParallel(2))
		if got != want {
			t.Errorf("%v: with WithParallel(2)\n%s\nwithout\n%s", topo, got, want)
		}
		if !s.Fabric().Certified() || s.Fabric().CutStalls() != 0 {
			t.Errorf("%v: certified %v, %d cut stalls", topo, s.Fabric().Certified(), s.Fabric().CutStalls())
		}
	}
}

// mpiTrace is one rank's observable outcome: the allreduce result, the
// byte its ring neighbor passed it, and the virtual instant it finished.
type mpiTrace struct {
	Sum  uint32
	Ring byte
	End  fmnet.Time
}

// runMPIWorkload drives every rank of a 16-node fat-tree MPI session through
// a barrier, an allreduce, a ring exchange and a closing barrier. It returns
// the per-rank traces and the kernel's event count.
func runMPIWorkload(t *testing.T, opts ...fmnet.Option) ([]mpiTrace, uint64) {
	t.Helper()
	const nodes = 16
	s, err := fmnet.New(append([]fmnet.Option{
		fmnet.Nodes(nodes), fmnet.Topology(fmnet.FatTree), fmnet.WithMPI(),
		fmnet.WithFullBisection(),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]mpiTrace, nodes)
	s.SpawnRanks("work", func(rank int, p *fmnet.Proc) {
		c := s.MPI(rank)
		if err := c.Barrier(p); err != nil {
			t.Error(err)
			return
		}
		var send, recv [4]byte
		binary.LittleEndian.PutUint32(send[:], uint32(rank+1))
		if err := c.Allreduce(p, send[:], recv[:], fmnet.OpSumU32); err != nil {
			t.Error(err)
			return
		}
		traces[rank].Sum = binary.LittleEndian.Uint32(recv[:])

		buf := make([]byte, 1024)
		req, err := c.Irecv(p, buf, (rank+nodes-1)%nodes, 7)
		if err != nil {
			t.Error(err)
			return
		}
		msg := make([]byte, 1024)
		msg[0] = byte(rank)
		if err := c.Send(p, msg, (rank+1)%nodes, 7); err != nil {
			t.Error(err)
			return
		}
		c.Wait(p, req)
		traces[rank].Ring = buf[0]

		if err := c.Barrier(p); err != nil {
			t.Error(err)
			return
		}
		traces[rank].End = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return traces, s.Kernel().Events()
}

// TestParallelMatchesSequential: an MPI workload asked to run on 2 or 4 LPs
// produces the per-rank results, end times and event count of the plain
// run, since every session runs on one kernel.
func TestParallelMatchesSequential(t *testing.T) {
	seq, seqEvents := runMPIWorkload(t)
	for r, tr := range seq {
		if want := uint32(len(seq) * (len(seq) + 1) / 2); tr.Sum != want {
			t.Fatalf("rank %d allreduce = %d, want %d", r, tr.Sum, want)
		}
		if want := byte((r + len(seq) - 1) % len(seq)); tr.Ring != want {
			t.Fatalf("rank %d ring byte = %d, want %d", r, tr.Ring, want)
		}
	}
	for _, parts := range []int{2, 4} {
		par, parEvents := runMPIWorkload(t, fmnet.WithParallel(parts))
		if !reflect.DeepEqual(seq, par) || seqEvents != parEvents {
			t.Fatalf("WithParallel(%d) diverged:\n sequential: %+v (%d events)\n   parallel: %+v (%d events)",
				parts, seq, seqEvents, par, parEvents)
		}
	}
}

// TestSessionLargeFatTree: past 1024 nodes the fat tree grows hosts per edge
// so the edge count fits a spine's port budget — the shape fmbench -perf
// uses at 4096 ranks — instead of panicking in the switch constructor.
func TestSessionLargeFatTree(t *testing.T) {
	s, err := fmnet.New(fmnet.Nodes(2048), fmnet.Topology(fmnet.FatTree), fmnet.WithMPI())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kernel().Shutdown()
	if s.Nodes() != 2048 || s.MPI(2047) == nil {
		t.Fatalf("session has %d nodes", s.Nodes())
	}
}

// TestSessionBuildAllocs holds what a short-lived session costs to stand up:
// fmnet.New with FM 2.x and MPI on a 256-node fat tree, within 1.1 × the
// mallocs per node it took once the fabric, its names and its NICs were laid
// out by the slice (22.3 per node; 55.4 when each port's link, resource,
// queue, forwarder and name was a malloc of its own).
func TestSessionBuildAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const nodes, base, slack = 256, 22.3, 1.1
	mallocs := alloctest.MinMallocs(func() {
		s, err := fmnet.New(fmnet.Nodes(nodes), fmnet.Topology(fmnet.FatTree), fmnet.FM2(), fmnet.WithMPI())
		if err != nil {
			t.Fatal(err)
		}
		s.Kernel().Shutdown()
	})
	per := float64(mallocs) / nodes
	t.Logf("fmnet.New at %d nodes: %d mallocs, %.1f per node", nodes, mallocs, per)
	if per > slack*base {
		t.Errorf("fmnet.New at %d nodes: %.1f mallocs per node, above %.1f (%.1f × %.1f)", nodes, per, slack*base, slack, base)
	}
}

// TestSessionGoroutineCensus: the hardware of a session — NIC firmware, switch
// forwarders — runs on the kernel's dispatcher, not on goroutines of its own,
// so a 256-rank fat tree costs at most a goroutine (a coroutine) per rank the
// program spawns and a small constant, not three per rank and one per switch
// port besides. A second identical session runs its ranks on the coroutines
// the first one's Shutdown gave back, and starts none.
func TestSessionGoroutineCensus(t *testing.T) {
	const ranks, slack = 256, 16
	for session, running := range []int{ranks + slack, slack} {
		before := runtime.NumGoroutine()
		s, err := fmnet.New(fmnet.Nodes(ranks), fmnet.Topology(fmnet.FatTree), fmnet.WithMPI())
		if err != nil {
			t.Fatal(err)
		}
		if grew := runtime.NumGoroutine() - before; grew > slack {
			t.Fatalf("session %d: building it started %d goroutines; the hardware should need none", session, grew)
		}
		s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) { p.Delay(fmnet.Microsecond) })
		if grew := runtime.NumGoroutine() - before; grew > slack {
			t.Fatalf("session %d: spawning %d ranks started %d goroutines; a Proc gets its coroutine at its first wake", session, ranks, grew)
		}
		if err := s.Kernel().RunUntil(fmnet.Microsecond / 2); err != nil { // every rank started, none finished
			t.Fatal(err)
		}
		// Upper bounds only: goroutines of earlier tests may still be exiting.
		if grew := runtime.NumGoroutine() - before; grew > running {
			t.Fatalf("session %d: with its %d ranks running it holds %d goroutines more than before it", session, ranks, grew)
		}
		s.Kernel().Shutdown()
	}
}

// TestSessionDeterminism: a mixed session quiesces at an identical virtual
// time across runs.
func TestSessionDeterminism(t *testing.T) {
	run := func() fmnet.Time {
		s, err := fmnet.New(fmnet.Nodes(4), fmnet.WithMPI(), fmnet.WithGlobalArray(64))
		if err != nil {
			t.Fatal(err)
		}
		done := false
		s.SpawnRanks("all", func(rank int, p *fmnet.Proc) {
			if err := s.MPI(rank).Barrier(p); err != nil {
				t.Error(err)
			}
			if rank == 0 {
				vals := make([]float64, 32)
				if err := s.Array(0).Put(p, 16, vals); err != nil {
					t.Error(err)
				}
				done = true
				return
			}
			for !done {
				s.Array(rank).Progress(p)
				p.Delay(2 * fmnet.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Errorf("session nondeterministic: %v vs %v", t1, t2)
	}
}

// TestSessionRPC: the service-workload layer through the public façade,
// co-resident with MPI on the shared endpoints.
func TestSessionRPC(t *testing.T) {
	run := func() fmnet.RPCResult {
		s, err := fmnet.New(fmnet.Nodes(4), fmnet.WithMPI(), fmnet.WithRPC(fmnet.RPCConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RPC().Plan(fmnet.RPCWorkload{
			Mode: fmnet.RPCOpen, Requests: 20, RateRPS: 40_000,
			Fanout: 2, Keyspace: 32, ZipfS: 1.1, RespBytes: 128, Seed: 1998,
		}); err != nil {
			t.Fatal(err)
		}
		s.SpawnRPC()
		// MPI shares the fabric with the RPC fleet.
		s.SpawnRanks("mpi", func(rank int, p *fmnet.Proc) {
			if err := s.MPI(rank).Barrier(p); err != nil {
				t.Error(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.RPC().Result()
	}
	res := run()
	if res.Completed != 4*20 || len(res.Errors) > 0 {
		t.Fatalf("completed %d (errors %v), want %d", res.Completed, res.Errors, 4*20)
	}
	if res.P99NS < res.P50NS || res.P50NS <= 0 {
		t.Fatalf("bad quantiles: p50 %d p99 %d", res.P50NS, res.P99NS)
	}
	if !reflect.DeepEqual(res, run()) {
		t.Fatal("RPC session result not deterministic across runs")
	}

	// "rpc" is a reserved service name now.
	if _, err := fmnet.New(fmnet.Nodes(2), fmnet.WithService("rpc")); err == nil {
		t.Error("reserved service name \"rpc\" accepted")
	}
	// Without WithRPC the accessor is nil.
	s, err := fmnet.New(fmnet.Nodes(2), fmnet.WithMPI())
	if err != nil {
		t.Fatal(err)
	}
	if s.RPC() != nil {
		t.Error("RPC() non-nil without WithRPC")
	}
}
