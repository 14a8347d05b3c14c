// Public-API tests: the Session façade assembles shared endpoints and
// co-resident services entirely through the fmnet surface.
package fmnet_test

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	fmnet "repro"
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
	if _, err := fmnet.New(fmnet.WithMPI(), fmnet.WithLinkSlots(-3)); err == nil {
		t.Error("negative link slots accepted")
	}
	if _, err := fmnet.New(fmnet.WithMPI(), fmnet.WithParallel(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	if _, err := fmnet.New(fmnet.WithRPC(fmnet.RPCConfig{ServiceTime: -5})); err == nil {
		t.Error("negative RPC service time accepted")
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
