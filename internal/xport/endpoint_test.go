// Shared-endpoint tests: service namespacing, solo passthrough cost
// equivalence, budget fairness across co-resident services, multi-client
// credit waits, and the co-residency conformance matrix — services sharing
// one endpoint per node must deliver byte-identical results to the same
// workloads on isolated transports, deterministically in virtual time.
package xport_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fm2"
	"repro/internal/garr"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/xport"
)

// fm2Machine is the machine the single-binding tests run on.
var fm2Machine = xport.GenFM2.Machine()

// platform builds an n-node single-switch cluster of the FM 2.x machine.
func platform(k *sim.Kernel, n int) *cluster.Platform {
	return cluster.New(k, fm2Machine.Config(n, cluster.SingleSwitch))
}

// endpoints attaches one shared FM 2.x endpoint per node.
func endpoints(pl *cluster.Platform) []*xport.Endpoint {
	return xport.AttachEndpoints(pl, fm2Machine)
}

// TestServiceNamespacing: two services register the SAME local handler id
// on one endpoint without colliding, and messages reach the right service.
func TestServiceNamespacing(t *testing.T) {
	k := sim.NewKernel()
	pl := platform(k, 2)
	eps := endpoints(pl)
	type svc struct{ a, b *xport.HandlerSpace }
	spaces := make([]svc, 2)
	for i, ep := range eps {
		spaces[i] = svc{ep.Register("alpha"), ep.Register("beta")}
	}
	var gotA, gotB []byte
	const id = 7 // same local id in both services
	spaces[1].a.Register(id, func(p *sim.Proc, s xport.RecvStream) {
		gotA = make([]byte, s.Length())
		s.Receive(p, gotA)
	})
	spaces[1].b.Register(id, func(p *sim.Proc, s xport.RecvStream) {
		gotB = make([]byte, s.Length())
		s.Receive(p, gotB)
	})
	k.Spawn("send", func(p *sim.Proc) {
		if err := xport.Send(p, spaces[0].a, 1, id, []byte("for alpha")); err != nil {
			t.Error(err)
		}
		if err := xport.Send(p, spaces[0].b, 1, id, []byte("for beta")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for gotA == nil || gotB == nil {
			eps[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(gotA) != "for alpha" || string(gotB) != "for beta" {
		t.Fatalf("misrouted: alpha=%q beta=%q", gotA, gotB)
	}
	st := eps[1].ServiceStats("alpha")
	if st.Msgs != 1 || st.Bytes != int64(len("for alpha")) {
		t.Fatalf("alpha stats %+v", st)
	}
	if eps[1].ServiceStats("beta").Msgs != 1 {
		t.Fatalf("beta stats %+v", eps[1].ServiceStats("beta"))
	}
}

// TestHandlerSlabBounds: local ids outside the slab are rejected on both
// the register and the send side.
func TestHandlerSlabBounds(t *testing.T) {
	k := sim.NewKernel()
	pl := platform(k, 2)
	sp := endpoints(pl)[0].Register("only")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversize handler id registered")
			}
		}()
		sp.Register(xport.SpaceSize, func(p *sim.Proc, s xport.RecvStream) {})
	}()
	k.Spawn("send", func(p *sim.Proc) {
		if _, err := sp.BeginMessage(p, 1, 4, xport.SpaceSize); err == nil {
			t.Error("oversize handler id accepted by BeginMessage")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSoloPassthroughCost: a layer bound to the only service of an endpoint
// wrapped by hand around a bare transport must be virtual-time-identical to
// the same layer assembled through AttachEndpoints — with one service the
// fair extractor is a passthrough, and the assembly path adds no cost.
func TestSoloPassthroughCost(t *testing.T) {
	run := func(solo bool) (sim.Time, []byte) {
		k := sim.NewKernel()
		pl := platform(k, 2)
		var spaces []*xport.HandlerSpace
		if solo {
			for _, ep := range fm2.Attach(pl, fm2.Config{}) {
				spaces = append(spaces, xport.NewEndpoint(xport.OverFM2(ep)).Register(mpifm.Service))
			}
		} else {
			spaces = xport.Spaces(endpoints(pl), mpifm.Service)
		}
		comms := mpifm.Attach(spaces, fm2Machine.Profile.MPI, mpifm.Options{})
		buf := make([]byte, 4096)
		k.Spawn("rank0", func(p *sim.Proc) {
			msg := bytes.Repeat([]byte{0xAB}, 4096)
			for i := 0; i < 20; i++ {
				if err := comms[0].Send(p, msg, 1, 1); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				if _, err := comms[1].Recv(p, buf, 0, 1); err != nil {
					t.Error(err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), append([]byte(nil), buf...)
	}
	tSolo, bSolo := run(true)
	tOver, bOver := run(false)
	if tSolo != tOver {
		t.Errorf("solo endpoint changed virtual time: %v vs %v", tSolo, tOver)
	}
	if !bytes.Equal(bSolo, bOver) {
		t.Error("solo endpoint changed delivered bytes")
	}
}

// TestFairBudgetedExtract: a paced caller whose packet sits behind another
// service's bulk traffic still completes — foreign packets are extracted
// (in arrival order) but billed to their own service's account — and the
// per-call foreign share is bounded, so one paced call cannot be turned
// into an unbounded pump.
func TestFairBudgetedExtract(t *testing.T) {
	k := sim.NewKernel()
	pl := platform(k, 2)
	eps := endpoints(pl)
	type svc struct{ bulk, trickle *xport.HandlerSpace }
	spaces := make([]svc, 2)
	for i, ep := range eps {
		spaces[i] = svc{ep.Register("bulk"), ep.Register("trickle")}
	}
	const bulkMsgs, bulkSize = 12, 8192
	sink := make([]byte, bulkSize)
	spaces[1].bulk.Register(1, func(p *sim.Proc, s xport.RecvStream) {
		for s.Remaining() > 0 {
			s.Receive(p, sink[:min(len(sink), s.Remaining())])
		}
	})
	var trickleGot []byte
	spaces[1].trickle.Register(1, func(p *sim.Proc, s xport.RecvStream) {
		trickleGot = make([]byte, s.Length())
		s.Receive(p, trickleGot)
	})
	k.Spawn("send", func(p *sim.Proc) {
		msg := bytes.Repeat([]byte{0x11}, bulkSize)
		for i := 0; i < bulkMsgs; i++ {
			if err := xport.Send(p, spaces[0].bulk, 1, 1, msg); err != nil {
				t.Error(err)
			}
		}
		// The trickle message lands behind ~96KB of bulk traffic.
		if err := xport.Send(p, spaces[0].trickle, 1, 1, []byte("paced")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		// The trickle service paces with a 1-byte budget, §4.1 style. It
		// must make progress through the bulk backlog without ever issuing
		// an unpaced drain itself.
		for trickleGot == nil {
			spaces[1].trickle.Extract(p, 1)
			p.Delay(sim.Microsecond)
		}
		// Drain whatever bulk remains so the kernel quiesces.
		for eps[1].ServiceStats("bulk").Msgs < bulkMsgs {
			eps[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(trickleGot) != "paced" {
		t.Fatalf("trickle payload %q", trickleGot)
	}
	bulk, trickle := eps[1].ServiceStats("bulk"), eps[1].ServiceStats("trickle")
	if bulk.Bytes != bulkMsgs*bulkSize {
		t.Errorf("bulk bytes %d, want %d", bulk.Bytes, bulkMsgs*bulkSize)
	}
	if trickle.Bytes != int64(len("paced")) {
		t.Errorf("trickle bytes %d, want %d", trickle.Bytes, len("paced"))
	}
}

// TestSharedCreditWait: two services on one node stream to different
// destinations from separate Procs, forcing both to block on credits at
// once. The designated-ctrl-waiter discipline must deliver every refill to
// the Proc that needs it (the lost-wakeup deadlock this pins would hang
// the kernel).
func TestSharedCreditWait(t *testing.T) {
	k := sim.NewKernel()
	pl := platform(k, 3)
	eps := endpoints(pl)
	type svc struct{ a, b *xport.HandlerSpace }
	spaces := make([]svc, 3)
	for i, ep := range eps {
		spaces[i] = svc{ep.Register("a"), ep.Register("b")}
	}
	const msgs, size = 30, 4096 // well past one credit window per dst
	recvd := [3]int{}
	sink := make([]byte, size)
	drain := func(node int, sp *xport.HandlerSpace) {
		sp.Register(1, func(p *sim.Proc, s xport.RecvStream) {
			for s.Remaining() > 0 {
				s.Receive(p, sink[:min(len(sink), s.Remaining())])
			}
			recvd[node]++
		})
	}
	drain(1, spaces[1].a)
	drain(2, spaces[2].b)
	msg := bytes.Repeat([]byte{0x3C}, size)
	k.Spawn("svcA", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := xport.Send(p, spaces[0].a, 1, 1, msg); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("svcB", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := xport.Send(p, spaces[0].b, 2, 1, msg); err != nil {
				t.Error(err)
			}
		}
	})
	for _, node := range []int{1, 2} {
		node := node
		k.Spawn(fmt.Sprintf("recv%d", node), func(p *sim.Proc) {
			for recvd[node] < msgs {
				// Slow extraction keeps the senders credit-starved.
				p.Delay(20 * sim.Microsecond)
				eps[node].Extract(p, 0)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd[1] != msgs || recvd[2] != msgs {
		t.Fatalf("recvd %v, want %d each", recvd, msgs)
	}
}

// The mixed workloads of the co-residency gate. Each spawner drives one
// service's workload on a kernel and returns a finalize func producing its
// result digest after the kernel drains — the same code runs on shared
// endpoints and on isolated per-workload platforms.
const mixedNodes = 4

func spawnMPIWorkload(t *testing.T, k *sim.Kernel, comms []*mpifm.Comm) func() []byte {
	n := len(comms)
	res := make([][]byte, n)
	for r := 0; r < n; r++ {
		r := r
		k.Spawn(fmt.Sprintf("mpi%d", r), func(p *sim.Proc) {
			in := make([]byte, 512)
			for i := range in {
				in[i] = byte(r + i)
			}
			out := make([]byte, len(in))
			for round := 0; round < 3; round++ {
				if err := comms[r].Allreduce(p, in, out, mpifm.OpSumU32); err != nil {
					t.Error(err)
					break
				}
				copy(in, out)
			}
			res[r] = out
		})
	}
	return func() []byte {
		var all []byte
		for r := 0; r < n; r++ {
			all = append(all, res[r]...)
		}
		return all
	}
}

func spawnSockWorkload(t *testing.T, k *sim.Kernel, stacks []*sockfm.Stack) func() []byte {
	n := len(stacks)
	var got bytes.Buffer
	k.Spawn("sockServer", func(p *sim.Proc) {
		l, err := stacks[n-1].Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1000)
		for {
			m, err := conn.Read(p, buf)
			got.Write(buf[:m])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("sockClient", func(p *sim.Proc) {
		conn, err := stacks[0].Dial(p, n-1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 8; i++ {
			seg := bytes.Repeat([]byte{byte(0x40 + i)}, 3000)
			if _, err := conn.Write(p, seg); err != nil {
				t.Error(err)
			}
		}
		conn.Close(p)
	})
	return got.Bytes
}

func spawnGAWorkload(t *testing.T, k *sim.Kernel, arrays []*garr.Array) func() []byte {
	n := len(arrays)
	done := false
	k.Spawn("gaOrigin", func(p *sim.Proc) {
		vals := make([]float64, 256)
		for i := range vals {
			vals[i] = float64(i)*0.5 - 3
		}
		if err := arrays[1].Put(p, 0, vals); err != nil {
			t.Error(err)
		}
		done = true
	})
	for r := 0; r < n; r++ {
		if r == 1 {
			continue
		}
		r := r
		k.Spawn(fmt.Sprintf("gaServe%d", r), func(p *sim.Proc) {
			for !done {
				arrays[r].Progress(p)
				p.Delay(2 * sim.Microsecond)
			}
		})
	}
	return func() []byte {
		var all []byte
		for r := 0; r < n; r++ {
			lo, _ := arrays[r].LocalBounds()
			for _, v := range arrays[r].Local() {
				all = append(all, []byte(fmt.Sprintf("%d:%g;", lo, v))...)
				lo++
			}
		}
		return all
	}
}

// sharedMixed runs all three workloads co-resident on one endpoint per
// node and returns their digests plus the quiesce time.
func sharedMixed(t *testing.T) (mpiOut, sockOut, gaOut []byte, end sim.Time) {
	k := sim.NewKernel()
	pl := platform(k, mixedNodes)
	eps := endpoints(pl)
	mpiSp := make([]*xport.HandlerSpace, mixedNodes)
	sockSp := make([]*xport.HandlerSpace, mixedNodes)
	gaSp := make([]*xport.HandlerSpace, mixedNodes)
	for i, ep := range eps {
		mpiSp[i] = ep.Register(mpifm.Service)
		sockSp[i] = ep.Register(sockfm.Service)
		gaSp[i] = ep.Register(garr.Service)
	}
	comms := mpifm.Attach(mpiSp, fm2Machine.Profile.MPI, mpifm.Options{})
	stacks := make([]*sockfm.Stack, mixedNodes)
	arrays := make([]*garr.Array, mixedNodes)
	for i := 0; i < mixedNodes; i++ {
		stacks[i] = sockfm.New(sockSp[i])
		a, err := garr.Attach(gaSp[i], 1, 256, mixedNodes)
		if err != nil {
			t.Fatal(err)
		}
		arrays[i] = a
	}
	mpiFin := spawnMPIWorkload(t, k, comms)
	sockFin := spawnSockWorkload(t, k, stacks)
	gaFin := spawnGAWorkload(t, k, arrays)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return mpiFin(), sockFin(), gaFin(), k.Now()
}

// isolatedMixed runs the same three workloads, each alone on its own
// platform as the only service of its node's endpoint.
func isolatedMixed(t *testing.T) (mpiOut, sockOut, gaOut []byte) {
	solo := func(k *sim.Kernel, service string) []*xport.HandlerSpace {
		return xport.Spaces(endpoints(platform(k, mixedNodes)), service)
	}
	{
		k := sim.NewKernel()
		comms := mpifm.Attach(solo(k, mpifm.Service), fm2Machine.Profile.MPI, mpifm.Options{})
		fin := spawnMPIWorkload(t, k, comms)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		mpiOut = fin()
	}
	{
		k := sim.NewKernel()
		stacks := make([]*sockfm.Stack, mixedNodes)
		for i, sp := range solo(k, sockfm.Service) {
			stacks[i] = sockfm.New(sp)
		}
		fin := spawnSockWorkload(t, k, stacks)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		sockOut = fin()
	}
	{
		k := sim.NewKernel()
		arrays := make([]*garr.Array, mixedNodes)
		for i, sp := range solo(k, garr.Service) {
			a, err := garr.Attach(sp, 1, 256, mixedNodes)
			if err != nil {
				t.Fatal(err)
			}
			arrays[i] = a
		}
		fin := spawnGAWorkload(t, k, arrays)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		gaOut = fin()
	}
	return mpiOut, sockOut, gaOut
}

// TestCoResidencyConformance is the shared-endpoint acceptance gate: the
// three workloads multiplexed on one endpoint per node deliver exactly the
// bytes they deliver when each runs alone on isolated transports, and the
// shared run is deterministic in virtual time.
func TestCoResidencyConformance(t *testing.T) {
	mpi1, sock1, ga1, end1 := sharedMixed(t)
	mpi2, sock2, ga2, end2 := sharedMixed(t)
	if end1 != end2 {
		t.Errorf("shared run nondeterministic: %v vs %v", end1, end2)
	}
	if !bytes.Equal(mpi1, mpi2) || !bytes.Equal(sock1, sock2) || !bytes.Equal(ga1, ga2) {
		t.Error("shared run nondeterministic: result bytes differ between runs")
	}
	mpiIso, sockIso, gaIso := isolatedMixed(t)
	if !bytes.Equal(mpi1, mpiIso) {
		t.Error("MPI results differ between shared endpoint and isolated transports")
	}
	if !bytes.Equal(sock1, sockIso) {
		t.Error("socket stream differs between shared endpoint and isolated transports")
	}
	if !bytes.Equal(ga1, gaIso) {
		t.Error("GA contents differ between shared endpoint and isolated transports")
	}
	if len(mpi1) == 0 || len(sock1) == 0 || len(ga1) == 0 {
		t.Fatal("a workload delivered no bytes")
	}
}

// Two extractors on one node — services A and B, each polling its own
// HandlerSpace — must between them deliver every multi-packet message whole:
// while one is charged for a fragment's staging copy, a closing fragment the
// other takes must not overtake it in FM 1.x's reassembly.
func TestTwoExtractorsReassemble(t *testing.T) {
	for _, bc := range bindingCases {
		k := sim.NewKernel()
		eps := bc.attach(platform(k, 2))
		a, b := xport.Spaces(eps, "a"), xport.Spaces(eps, "b")
		const msgs = 20
		got := 0
		a[1].Register(coRecvID, func(p *sim.Proc, s xport.RecvStream) {
			s.ReceiveDiscard(p, s.Remaining())
			got++
		})
		k.Spawn("sender", func(p *sim.Proc) {
			msg := make([]byte, a[0].MTU()+16)
			for i := 0; i < msgs; i++ {
				if err := xport.Send(p, a[0], 1, coRecvID, msg); err != nil {
					t.Error(err)
				}
			}
		})
		for _, sp := range []*xport.HandlerSpace{a[1], b[1]} {
			k.SpawnAt(100*sim.Microsecond, "extract", func(p *sim.Proc) {
				for got < msgs {
					sp.Extract(p, 0)
				}
			})
		}
		err := k.RunUntil(sim.Millisecond)
		k.Shutdown()
		if orphaned := eps[1].Transport().Core().Stats().Orphaned; err != nil || got != msgs || orphaned != 0 {
			t.Errorf("%s: %d of %d delivered, %d fragments orphaned (err %v)", bc.name, got, msgs, orphaned, err)
		}
	}
}
