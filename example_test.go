// The examples are the public fmnet surface at work, one program each: a
// session assembled through the façade, services attached to its shared
// endpoints, and deterministic virtual-time output that each Output block
// pins. Run one with go test -run Example_<name> -v .
package fmnet_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"strings"

	fmnet "repro"
)

// Example_quickstart walks the session façade end to end: one shared
// endpoint per node, a custom streaming service registered on it, gather
// on the send side, a header-then-payload handler on the receive side, and
// paced extraction.
func Example_quickstart() {
	const echoHandler fmnet.HandlerID = 10

	// A Session is one deterministic simulation: hosts, NICs, the Myrinet
	// fabric, and ONE shared FM 2.x endpoint per node. Services attach to
	// that endpoint; here a single custom service named "echo".
	s, err := fmnet.New(
		fmnet.Nodes(2),
		fmnet.FM2(),
		fmnet.WithService("echo"),
	)
	if err != nil {
		log.Fatal(err)
	}

	// The receiver registers a handler in its service's handler space (IDs
	// are namespaced per service, so co-resident services cannot collide).
	// FM runs it on its own logical thread as soon as the message's first
	// packet arrives: read the 8-byte header, pick a buffer, then scatter
	// the payload into it.
	var received int
	s.Space(1, "echo").Register(echoHandler, func(p *fmnet.Proc, str fmnet.RecvStream) {
		var hdr [8]byte
		str.Receive(p, hdr[:])
		id := binary.LittleEndian.Uint32(hdr[0:])
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		payload := make([]byte, n)
		str.Receive(p, payload)
		received++
		fmt.Printf("[%8s] node1: message %d, %d payload bytes (first=%q)\n",
			p.Now(), id, n, payload[:4])
	})

	const msgs = 3
	s.Spawn("node0", func(p *fmnet.Proc) {
		for i := 0; i < msgs; i++ {
			payload := []byte(fmt.Sprintf("ping %d payload", i))
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(i))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
			// Gather: header and payload are separate pieces; FM packetizes.
			if err := fmnet.SendGather(p, s.Space(0, "echo"), 1, echoHandler, hdr[:], payload); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%8s] node0: sent message %d\n", p.Now(), i)
		}
	})

	s.Spawn("node1", func(p *fmnet.Proc) {
		for received < msgs {
			// Receiver flow control: at most ~1 KB presented per call, and
			// the budget is charged fairly if other services co-reside.
			s.Space(1, "echo").Extract(p, 1024)
			if received < msgs {
				p.Delay(fmnet.Microsecond)
			}
		}
	})

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done at virtual time %s; echo service on node1 consumed %d bytes\n",
		s.Now(), s.Endpoint(1).ServiceStats("echo").Bytes)
	// Output:
	// [ 3.216us] node0: sent message 0
	// [ 6.432us] node0: sent message 1
	// [ 9.648us] node0: sent message 2
	// [10.910us] node1: message 0, 14 payload bytes (first="ping")
	// [14.420us] node1: message 1, 14 payload bytes (first="ping")
	// [16.930us] node1: message 2, 14 payload bytes (first="ping")
	// done at virtual time 16.930us; echo service on node1 consumed 66 bytes
}

// Example_mpi runs a four-rank ring exchange, then a two-rank bandwidth
// sweep over both FM generations, to show the interface efficiency gap the
// paper measures (Figures 4 and 6).
func Example_mpi() {
	s := mpiWorld(4, fmnet.FM2())
	fmt.Println("ring exchange, 4 ranks:")
	s.SpawnRanks("rank", func(r int, p *fmnet.Proc) {
		c := s.MPI(r)
		right := (r + 1) % c.Size()
		left := (r + c.Size() - 1) % c.Size()
		buf := make([]byte, 8)
		req, err := c.Irecv(p, buf, left, 1)
		if err != nil {
			log.Fatal(err)
		}
		msg := []byte(fmt.Sprintf("from %d !", r))
		if err := c.Send(p, msg, right, 1); err != nil {
			log.Fatal(err)
		}
		st := c.Wait(p, req)
		fmt.Printf("  rank %d got %q from rank %d at %s\n", r, buf[:st.Len], st.Source, p.Now())
		if err := c.Barrier(p); err != nil {
			log.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nMPI bandwidth sweep (streaming, rank0 -> rank1):")
	fmt.Printf("  %8s  %14s  %14s\n", "size", "MPI/FM1 (MB/s)", "MPI/FM2 (MB/s)")
	for _, size := range []int{16, 128, 1024, 2048} {
		msgs := 400
		b1 := mpiBandwidth(fmnet.FM1(), size, msgs)
		b2 := mpiBandwidth(fmnet.FM2(), size, msgs)
		fmt.Printf("  %8d  %14.2f  %14.2f\n", size, b1, b2)
	}
	fmt.Println("  (the gap is the paper's interface-efficiency story: the same MPI")
	fmt.Println("   code delivers a far larger share of FM 2.x's bandwidth)")
	// Output:
	// ring exchange, 4 ranks:
	//   rank 0 got "from 3 !" from rank 3 at 12.860us
	//   rank 1 got "from 0 !" from rank 0 at 12.860us
	//   rank 2 got "from 1 !" from rank 1 at 12.860us
	//   rank 3 got "from 2 !" from rank 2 at 12.860us
	//
	// MPI bandwidth sweep (streaming, rank0 -> rank1):
	//       size  MPI/FM1 (MB/s)  MPI/FM2 (MB/s)
	//         16            0.98            3.64
	//        128            4.47           24.01
	//       1024            6.04           69.88
	//       2048            6.32           76.27
	//   (the gap is the paper's interface-efficiency story: the same MPI
	//    code delivers a far larger share of FM 2.x's bandwidth)
}

// mpiWorld assembles an n-rank MPI session over one FM generation.
func mpiWorld(n int, gen fmnet.Option) *fmnet.Session {
	s, err := fmnet.New(fmnet.Nodes(n), gen, fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// mpiBandwidth streams msgs messages of size bytes rank0 -> rank1 — the
// receiver posts each receive then waits, the standard MPI bandwidth-test
// loop — and reports MB/s of virtual time.
func mpiBandwidth(gen fmnet.Option, size, msgs int) float64 {
	s := mpiWorld(2, gen)
	var start, end fmnet.Time
	s.SpawnOn(0, "rank0", func(p *fmnet.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := s.MPI(0).Send(p, msg, 1, 1); err != nil {
				log.Fatal(err)
			}
		}
	})
	s.SpawnOn(1, "rank1", func(p *fmnet.Proc) {
		buf := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if _, err := s.MPI(1).Recv(p, buf, 0, 1); err != nil {
				log.Fatal(err)
			}
		}
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return float64(size) * float64(msgs) / 1e6 / (end - start).Seconds()
}

// The lattice of Example_collectives.
const (
	latticeRanks = 8
	sitesPerRank = 2048 // lattice sites per rank
	iterations   = 10
)

// Example_collectives is the communication skeleton of a lattice-QCD-style
// iterative solver. Machines of the CP-PACS class spend their MPI time in
// exactly this loop — a global Allreduce of a dot product every iteration,
// with occasional Bcast/Allgather of whole fields — so it is the workload
// where the per-message efficiency of the FM binding compounds hardest.
//
// Each of 8 ranks owns a slab of lattice sites. Per iteration every rank
// computes a local partial dot product (compute time charged to the host
// model), then Allreduce(sum_f64) produces the global scalar every rank
// needs before the next step. The same loop runs over both FM bindings and
// under both Allreduce algorithms to show the layering and algorithm gaps.
func Example_collectives() {
	fmt.Printf("lattice dot-product loop: %d ranks x %d sites, %d iterations\n\n",
		latticeRanks, sitesPerRank, iterations)

	fmt.Printf("  %-22s  %14s  %12s\n", "configuration", "global dot", "time")
	type config struct {
		name string
		gen  fmnet.Option
		algo fmnet.CollectiveAlgo
	}
	for _, cfg := range []config{
		{"MPI/FM1  recdbl", fmnet.FM1(), fmnet.AlgoRecursiveDoubling},
		{"MPI-FM2  recdbl", fmnet.FM2(), fmnet.AlgoRecursiveDoubling},
		{"MPI-FM2  ring", fmnet.FM2(), fmnet.AlgoRing},
		{"MPI-FM2  flat", fmnet.FM2(), fmnet.AlgoFlat},
	} {
		dot, t := dotLoop(cfg.gen, cfg.algo)
		fmt.Printf("  %-22s  %14.6f  %12s\n", cfg.name, dot, t)
	}
	fmt.Println("\n  (the FM1-vs-FM2 gap is the paper's layering-efficiency story,")
	fmt.Println("   compounded over every message of every global sum; the 8-byte")
	fmt.Println("   Allreduce is latency-bound, so recursive doubling's O(log P)")
	fmt.Println("   rounds beat the ring's O(P))")
	// Output:
	// lattice dot-product loop: 8 ranks x 2048 sites, 10 iterations
	//
	//   configuration               global dot          time
	//   MPI/FM1  recdbl           -6788.913051      40.133ms
	//   MPI-FM2  recdbl           -6788.913051       5.859ms
	//   MPI-FM2  ring             -6788.913051       7.241ms
	//   MPI-FM2  flat             -6788.913051       6.066ms
	//
	//   (the FM1-vs-FM2 gap is the paper's layering-efficiency story,
	//    compounded over every message of every global sum; the 8-byte
	//    Allreduce is latency-bound, so recursive doubling's O(log P)
	//    rounds beat the ring's O(P))
}

// localField deterministically initializes rank r's slab of the field.
func localField(r int) []float64 {
	v := make([]float64, sitesPerRank)
	for i := range v {
		v[i] = math.Sin(float64(r*sitesPerRank+i) * 0.001)
	}
	return v
}

// dotLoop runs the solver skeleton over one FM generation and returns the
// final global dot product and the virtual time the slowest rank took.
func dotLoop(gen fmnet.Option, algo fmnet.CollectiveAlgo) (float64, fmnet.Time) {
	s, err := fmnet.New(fmnet.Nodes(latticeRanks), gen, fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	var final float64
	var elapsed fmnet.Time
	s.SpawnRanks("rank", func(r int, p *fmnet.Proc) {
		c := s.MPI(r)
		c.SetCollectiveAlgo(algo)
		x := localField(c.Rank())
		y := localField(c.Rank() + latticeRanks)
		if err := c.Barrier(p); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		var global float64
		buf := make([]byte, 8)
		out := make([]byte, 8)
		for it := 0; it < iterations; it++ {
			// Local partial dot product; the arithmetic streams both
			// operands through the cache, charged like a copy.
			partial := 0.0
			for i := range x {
				partial += x[i] * y[i]
			}
			c.Host().Memcpy(p, 16*sitesPerRank)
			binary.LittleEndian.PutUint64(buf, math.Float64bits(partial))
			if err := c.Allreduce(p, buf, out, fmnet.OpSumF64); err != nil {
				log.Fatal(err)
			}
			global = math.Float64frombits(binary.LittleEndian.Uint64(out))
			// A real CG step would now scale and update the local slab
			// with the global scalar; the communication is what we model.
			for i := range x {
				y[i] += 1e-6 * global * x[i]
			}
			c.Host().Memcpy(p, 24*sitesPerRank)
		}
		if c.Rank() == 0 {
			final = global
		}
		if d := p.Now() - start; d > elapsed {
			elapsed = d
		}
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return final, elapsed
}

// Example_fabric walks the fabric zoo: assembling the multi-stage
// topologies, reading their source routes, and watching trunk contention
// separate a switch-limited fabric from a bisection-limited one.
//
// The paper's evaluation (Figures 4/6) lives on one Myrinet crossbar,
// where every port pair has a private path. Real FM-class machines
// (CP-PACS and friends) ran on multi-stage fabrics where trunks are
// shared. This example builds each member of the fabric zoo, shows the
// Myrinet-style source routes the switches consume, and runs the same cut
// workload on all of them.
func Example_fabric() {
	fmt.Println("== The fabric zoo ==")
	for _, topo := range zoo {
		fmt.Printf("%-8s  %s\n", topo, zooSession(topo).Fabric().Describe())
	}

	fmt.Println("\n== Source routes ==")
	fmt.Println("A route is the byte string the switches consume, one output")
	fmt.Println("port per hop (Myrinet source routing: zero routing state in")
	fmt.Println("the fabric). Node 0 -> node 15 on each topology:")
	for _, topo := range zoo {
		fmt.Printf("%-8s  route %v\n", topo, zooSession(topo).Fabric().Route(0, 15))
	}
	fmt.Println("\nOn the fat tree the first byte picks the uplink: the spine is")
	fmt.Println("chosen deterministically per (src,dst) pair, so one edge's")
	fmt.Println("traffic spreads over every uplink:")
	fab := zooSession(fmnet.FatTree).Fabric()
	for dst := 4; dst < 8; dst++ {
		fmt.Printf("  0 -> %2d  route %v\n", dst, fab.Route(0, dst))
	}
	fmt.Println("\nOn the torus, routes are dimension-order (X then Y) and a hop")
	fmt.Println("that takes a wraparound link switches to the dateline virtual")
	fmt.Println("channel (the +1 port of the pair) so back-pressure can never")
	fmt.Println("cycle around a ring:")
	fab = zooSession(fmnet.Torus).Fabric()
	for _, dst := range []int{4, 12, 15} {
		fmt.Printf("  0 -> %2d  route %v\n", dst, fab.Route(0, dst))
	}

	fmt.Println("\n== Trunk contention: the cut experiment ==")
	fmt.Println("8 MPI flows stream 2 KiB messages across each fabric's cut")
	fmt.Println("(rank i -> rank i+8) simultaneously. One crossbar gives every")
	fmt.Println("flow a private path; the line funnels all 8 through one trunk;")
	fmt.Println("the fat tree's two uplinks per edge and the torus rings sit in")
	fmt.Println("between — switch-limited vs bisection-limited regimes:")
	for _, topo := range zoo {
		fmt.Printf("%-8s  aggregate %7.2f MB/s\n", topo, cutAggregate(topo))
	}
	fmt.Println("\n(fmbench -topo runs the full report: xport-level regimes, the")
	fmt.Println("layering matrix under cut load, and collective scaling across")
	fmt.Println("every fabric at up to 64 ranks.)")
	// Output:
	// == The fabric zoo ==
	// single    16 nodes on one crossbar
	// line      line of 8 switches x 2 hosts
	// fattree   fat tree: 4 edge switches x 4 hosts, 2 spines (16 nodes)
	// torus     2x2 torus x 4 hosts (16 nodes), DOR + dateline VCs
	//
	// == Source routes ==
	// A route is the byte string the switches consume, one output
	// port per hop (Myrinet source routing: zero routing state in
	// the fabric). Node 0 -> node 15 on each topology:
	// single    route [15]
	// line      route [3 3 3 3 3 3 3 1]
	// fattree   route [5 3 3]
	// torus     route [4 8 3]
	//
	// On the fat tree the first byte picks the uplink: the spine is
	// chosen deterministically per (src,dst) pair, so one edge's
	// traffic spreads over every uplink:
	//   0 ->  4  route [4 1 0]
	//   0 ->  5  route [5 1 1]
	//   0 ->  6  route [4 1 2]
	//   0 ->  7  route [5 1 3]
	//
	// On the torus, routes are dimension-order (X then Y) and a hop
	// that takes a wraparound link switches to the dateline virtual
	// channel (the +1 port of the pair) so back-pressure can never
	// cycle around a ring:
	//   0 ->  4  route [4 0]
	//   0 -> 12  route [4 8 0]
	//   0 -> 15  route [4 8 3]
	//
	// == Trunk contention: the cut experiment ==
	// 8 MPI flows stream 2 KiB messages across each fabric's cut
	// (rank i -> rank i+8) simultaneously. One crossbar gives every
	// flow a private path; the line funnels all 8 through one trunk;
	// the fat tree's two uplinks per edge and the torus rings sit in
	// between — switch-limited vs bisection-limited regimes:
	// single    aggregate  605.36 MB/s
	// line      aggregate  131.32 MB/s
	// fattree   aggregate  519.90 MB/s
	// torus     aggregate  261.92 MB/s
	//
	// (fmbench -topo runs the full report: xport-level regimes, the
	// layering matrix under cut load, and collective scaling across
	// every fabric at up to 64 ranks.)
}

// zoo is the fabric zoo in report order.
var zoo = []fmnet.Topo{fmnet.SingleSwitch, fmnet.Line, fmnet.FatTree, fmnet.Torus}

// zooSession assembles a 16-node MPI session on the given topology.
func zooSession(topo fmnet.Topo) *fmnet.Session {
	s, err := fmnet.New(fmnet.Nodes(16), fmnet.Topology(topo), fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// cutAggregate runs 8 simultaneous MPI flows across the fabric's cut
// (rank i -> rank i+8) and reports aggregate bandwidth.
func cutAggregate(topo fmnet.Topo) float64 {
	s := zooSession(topo)
	const size, msgs = 2048, 80
	var first, last fmnet.Time
	done := 0
	for i := 0; i < 8; i++ {
		src, dst := i, i+8
		s.SpawnOn(src, fmt.Sprintf("send%d", i), func(p *fmnet.Proc) {
			if first == 0 {
				first = p.Now()
			}
			msg := make([]byte, size)
			for m := 0; m < msgs; m++ {
				if err := s.MPI(src).Send(p, msg, dst, 1); err != nil {
					panic(err)
				}
			}
		})
		s.SpawnOn(dst, fmt.Sprintf("recv%d", i), func(p *fmnet.Proc) {
			buf := make([]byte, size)
			for m := 0; m < msgs; m++ {
				if _, err := s.MPI(dst).Recv(p, buf, src, 1); err != nil {
					panic(err)
				}
			}
			done++
			if done == 8 {
				last = p.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return 8 * size * msgs / 1e6 / (last - first).Seconds()
}

// Example_mixed is the paper's shared-substrate claim (§4.2) as a program.
// One fmnet Session assembles a fat-tree cluster with ONE shared FM 2.x
// endpoint per node; MPI collectives, a socket stream, and Global Arrays
// puts then run SIMULTANEOUSLY on that endpoint — one transport, one
// handler table, one credit window per peer — and the per-service
// accounting shows how the fabric was shared.
func Example_mixed() {
	const nodes = 8
	s, err := fmnet.New(
		fmnet.Nodes(nodes),
		fmnet.Topology(fmnet.FatTree),
		fmnet.FM2(),
		fmnet.WithMPI(),
		fmnet.WithSockets(),
		fmnet.WithGlobalArray(nodes*64),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Workload 1 — MPI: every rank allreduces a vector, four rounds. The
	// collective's sends and receives share each node's endpoint with the
	// socket and GA traffic below.
	mpiDone := 0
	s.SpawnRanks("allreduce", func(rank int, p *fmnet.Proc) {
		in := make([]byte, 1024)
		out := make([]byte, 1024)
		for round := 0; round < 4; round++ {
			if err := s.MPI(rank).Allreduce(p, in, out, fmnet.OpSumU32); err != nil {
				log.Fatal(err)
			}
		}
		mpiDone++
		if mpiDone == nodes {
			fmt.Printf("[%8s] MPI: %d ranks finished 4 allreduce rounds\n", p.Now(), nodes)
		}
	})

	// Workload 2 — sockets: node 0 streams 100 KB to node 7 through the
	// Berkeley stream personality, co-resident with the collectives.
	s.Spawn("sockServer", func(p *fmnet.Proc) {
		l, err := s.Sockets(nodes - 1).Listen(80)
		if err != nil {
			log.Fatal(err)
		}
		conn, err := l.Accept(p)
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 8192)
		total := 0
		for {
			n, err := conn.Read(p, buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("[%8s] sockets: node %d received %d KB (direct %dB, pooled %dB)\n",
			p.Now(), nodes-1, total/1024, conn.DirectBytes, conn.PooledBytes)
	})
	s.Spawn("sockClient", func(p *fmnet.Proc) {
		conn, err := s.Sockets(0).Dial(p, nodes-1, 80)
		if err != nil {
			log.Fatal(err)
		}
		seg := make([]byte, 4096)
		for i := 0; i < 25; i++ {
			if _, err := conn.Write(p, seg); err != nil {
				log.Fatal(err)
			}
		}
		conn.Close(p)
	})

	// Workload 3 — Global Arrays: every rank accumulates into its right
	// neighbor's block; one-sided puts ride the same endpoints as its own
	// accounted service.
	gaDone := 0
	s.SpawnRanks("ga", func(rank int, p *fmnet.Proc) {
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = float64(rank)
		}
		dst := (rank + 1) % nodes
		lo, _ := s.Array(dst).LocalBounds()
		for i := 0; i < 10; i++ {
			if err := s.Array(rank).Put(p, lo, vals); err != nil {
				log.Fatal(err)
			}
		}
		gaDone++
		if gaDone == nodes {
			fmt.Printf("[%8s] GA: %d ranks finished 10 puts each\n", p.Now(), nodes)
		}
		for gaDone < nodes { // serve incoming puts until all origins finish
			s.Array(rank).Progress(p)
			p.Delay(2 * fmnet.Microsecond)
		}
	})

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	// The shared endpoints kept per-service books the whole time.
	fmt.Printf("\nPer-service bytes consumed across all %d shared endpoints:\n", nodes)
	var total int64
	sums := map[string]int64{}
	for _, svc := range []string{"mpi", "sockets", "garr"} {
		for node := 0; node < nodes; node++ {
			sums[svc] += s.Endpoint(node).ServiceStats(svc).Bytes
		}
		total += sums[svc]
	}
	for _, svc := range []string{"mpi", "sockets", "garr"} {
		fmt.Printf("  %-8s %8d bytes  (%4.1f%% share)\n",
			svc, sums[svc], 100*float64(sums[svc])/float64(total))
	}
	fmt.Printf("done at virtual time %s\n", s.Now())
	// Output:
	// [945.907us] MPI: 8 ranks finished 4 allreduce rounds
	// [ 1.402ms] GA: 8 ranks finished 10 puts each
	// [ 1.713ms] sockets: node 7 received 100 KB (direct 102400B, pooled 0B)
	//
	// Per-service bytes consumed across all 8 shared endpoints:
	//   mpi        100608 bytes  (40.6% share)
	//   sockets    102736 bytes  (41.5% share)
	//   garr        44160 bytes  (17.8% share)
	// done at virtual time 1.718ms
}

// Example_sockets is a tiny request/response service over stream sockets
// layered on FM 2.x — the Berkeley sockets personality the paper layers on
// FM (§3.2, §4.2) — attached to each node's shared endpoint through the
// public fmnet session façade.
func Example_sockets() {
	s, err := fmnet.New(fmnet.Nodes(3), fmnet.FM2(), fmnet.WithSockets())
	if err != nil {
		log.Fatal(err)
	}

	const port = 7 // echo-with-a-twist
	s.Spawn("server", func(p *fmnet.Proc) {
		l, err := s.Sockets(0).Listen(port)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 2; i++ { // serve two clients
			conn, err := l.Accept(p)
			if err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, 256)
			for {
				n, err := conn.Read(p, buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					log.Fatal(err)
				}
				reply := strings.ToUpper(string(buf[:n]))
				if _, err := conn.Write(p, []byte(reply)); err != nil {
					log.Fatal(err)
				}
			}
			conn.Close(p)
			fmt.Printf("[%8s] server: client from node %d served (direct %dB, pooled %dB)\n",
				p.Now(), conn.PeerNode(), conn.DirectBytes, conn.PooledBytes)
		}
	})

	for c := 1; c <= 2; c++ {
		s.Spawn(fmt.Sprintf("client%d", c), func(p *fmnet.Proc) {
			p.Delay(fmnet.Time(c*20) * fmnet.Microsecond)
			conn, err := s.Sockets(c).Dial(p, 0, port)
			if err != nil {
				log.Fatal(err)
			}
			msg := fmt.Sprintf("hello from node %d over fast messages", c)
			if _, err := conn.Write(p, []byte(msg)); err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, 256)
			got := 0
			for got < len(msg) {
				n, err := conn.Read(p, buf[got:])
				if err != nil {
					log.Fatal(err)
				}
				got += n
			}
			fmt.Printf("[%8s] client%d: reply %q\n", p.Now(), c, buf[:got])
			conn.Close(p)
		})
	}

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// [63.549us] client1: reply "HELLO FROM NODE 1 OVER FAST MESSAGES"
	// [76.568us] server: client from node 1 served (direct 36B, pooled 0B)
	// [108.749us] client2: reply "HELLO FROM NODE 2 OVER FAST MESSAGES"
	// [121.683us] server: client from node 2 served (direct 36B, pooled 0B)
}

// Example_shmem runs one-sided Put/Get and a block-distributed global
// array through a Jacobi smoothing sweep — the global-address-space
// interfaces the paper reports on FM 2.x (§4.2) — co-resident as two
// services on each node's shared endpoint, assembled through the public
// fmnet session façade.
func Example_shmem() {
	const (
		ranks   = 4
		size    = 64 // global array elements
		sweeps  = 4
		scratch = 2
	)
	s, err := fmnet.New(
		fmnet.Nodes(ranks),
		fmnet.FM2(),
		fmnet.WithShmem(),
		fmnet.WithGlobalArray(size),
	)
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		s.Shmem(r).Register(scratch, make([]byte, 64))
	}

	done := false
	// Ranks 1..3 are passive targets: they service one-sided traffic for
	// both services (any extraction drains the whole shared endpoint).
	for r := 1; r < ranks; r++ {
		s.Spawn(fmt.Sprintf("serve%d", r), func(p *fmnet.Proc) {
			for !done {
				s.Array(r).Progress(p)
				p.Delay(2 * fmnet.Microsecond)
			}
		})
	}

	// Rank 0 initializes the array with a step function via global Puts and
	// drives Jacobi smoothing sweeps over it.
	s.Spawn("rank0", func(p *fmnet.Proc) {
		a := s.Array(0)
		init := make([]float64, size)
		for i := range init {
			if i >= size/4 && i < 3*size/4 {
				init[i] = 100
			}
		}
		if err := a.Put(p, 0, init); err != nil {
			log.Fatal(err)
		}
		cur := make([]float64, size)
		next := make([]float64, size)
		for sw := 0; sw < sweeps; sw++ {
			if err := a.Get(p, 0, cur); err != nil {
				log.Fatal(err)
			}
			for i := 1; i < size-1; i++ {
				next[i] = (cur[i-1] + cur[i] + cur[i+1]) / 3
			}
			next[0], next[size-1] = cur[0], cur[size-1]
			if err := a.Put(p, 0, next); err != nil {
				log.Fatal(err)
			}
			sum := 0.0
			for _, v := range next {
				sum += v
			}
			fmt.Printf("[%9s] sweep %d: smoothed, mass %.1f\n", p.Now(), sw+1, sum)
		}
		// A direct one-sided write into a scratch region on rank 1, through
		// the user-level shmem service (distinct from the GA service).
		if err := s.Shmem(0).Put(p, 1, scratch, 0, []byte("one-sided!")); err != nil {
			log.Fatal(err)
		}
		s.Shmem(0).Quiet(p)
		done = true
	})

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank1 scratch region now holds %q\n", s.Shmem(1).Region(scratch)[:10])
	lo, hi := s.Array(1).LocalBounds()
	fmt.Printf("rank1 owns global indices [%d,%d); first values %.2f %.2f\n",
		lo, hi, s.Array(1).Local()[0], s.Array(1).Local()[1])
	fmt.Printf("per-service bytes on rank1's endpoint: shmem %d, garr %d\n",
		s.Endpoint(1).ServiceStats("shmem").Bytes, s.Endpoint(1).ServiceStats("garr").Bytes)
	// Output:
	// [147.980us] sweep 1: smoothed, mass 3200.0
	// [260.846us] sweep 2: smoothed, mass 3200.0
	// [373.712us] sweep 3: smoothed, mass 3200.0
	// [486.578us] sweep 4: smoothed, mass 3200.0
	// rank1 scratch region now holds "one-sided!"
	// rank1 owns global indices [16,32); first values 61.73 81.48
	// per-service bytes on rank1's endpoint: shmem 30, garr 820
}
