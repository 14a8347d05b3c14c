package fmnet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/trafficgen"
	"repro/internal/xport"
)

// mpiWorld attaches MPI-FM 2.0 to every node of pl through the one assembly
// path: shared endpoints, the MPI service registered on each.
func mpiWorld(pl *cluster.Platform) []*mpifm.Comm {
	m := xport.GenFM2.Machine()
	eps := xport.AttachEndpoints(pl, m)
	return mpifm.Attach(xport.Spaces(eps, mpifm.Service), m.Profile.MPI, mpifm.Options{})
}

// TestMPIOverMultiHopFabric runs MPI-FM 2.0 across a two-switch line
// topology: messages traverse trunk links and multi-byte source routes.
func TestMPIOverMultiHopFabric(t *testing.T) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 6
	cfg.Topology = cluster.Line
	pl := cluster.New(k, cfg)
	comms := mpiWorld(pl)
	// Node 0 (switch 0) exchanges with node 5 (switch 2): 2 trunk hops.
	msg := bytes.Repeat([]byte{0xE7}, 4096)
	k.Spawn("rank0", func(p *sim.Proc) {
		if err := comms[0].Send(p, msg, 5, 9); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rank5", func(p *sim.Proc) {
		buf := make([]byte, len(msg))
		st, err := comms[5].Recv(p, buf, 0, 9)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Len != len(msg) || !bytes.Equal(buf, msg) {
			t.Error("multi-hop payload corrupted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFMAssumesReliableWire documents the paper's reliability contract:
// FM provides reliable delivery *given* Myrinet's near-zero error rate and
// back-pressure (§3.1) — it has no retransmission. With injected loss,
// messages are lost, which is exactly why the substitution note in
// DESIGN.md keeps default links lossless.
func TestFMAssumesReliableWire(t *testing.T) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Faults = &netsim.FaultPlan{Seed: 99, Rules: []netsim.FaultRule{{DropProb: 0.2}}}
	cfg.Profile.Stage = hostmodel.StageBus // no credits: a lost frame cannot stall the sender
	pl := cluster.New(k, cfg)
	eps := fm1.Attach(pl, fm1.Config{})
	recvd := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) { recvd++ })
	const sent = 100
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			if err := eps[0].Send(p, 1, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			eps[1].Extract(p)
			p.Delay(5 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd >= sent {
		t.Fatalf("no loss despite 20%% drop injection (recvd %d)", recvd)
	}
	if recvd == 0 {
		t.Fatal("everything lost; drop model broken")
	}
}

// TestFullStackMixedWorkload runs MPI and sockets over the same FM 2.x
// endpoints simultaneously on a 4-node cluster with realistic message
// sizes: the layers must share Extract-driven progress without interfering.
func TestFullStackMixedWorkload(t *testing.T) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	pl := cluster.New(k, cfg)
	// MPI traffic on nodes 0,1 — socket traffic on nodes 2,3. Both services
	// are registered on every node's one endpoint; all share the one fabric.
	m := xport.GenFM2.Machine()
	eps := xport.AttachEndpoints(pl, m)
	comms := mpifm.Attach(xport.Spaces(eps, mpifm.Service), m.Profile.MPI, mpifm.Options{})
	sockSp := xport.Spaces(eps, sockfm.Service)
	sockEps := []*sockfm.Stack{sockfm.New(sockSp[2]), sockfm.New(sockSp[3])}
	sizes := trafficgen.SUNYCampus().NewSampler(7).Sizes(60)

	k.Spawn("mpi-sender", func(p *sim.Proc) {
		for i, sz := range sizes {
			msg := bytes.Repeat([]byte{byte(i)}, sz)
			if err := comms[0].Send(p, msg, 1, 1); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("mpi-receiver", func(p *sim.Proc) {
		buf := make([]byte, 2048)
		for i, sz := range sizes {
			st, err := comms[1].Recv(p, buf, 0, 1)
			if err != nil || st.Len != sz {
				t.Errorf("msg %d: len %d want %d err %v", i, st.Len, sz, err)
				return
			}
		}
	})
	k.Spawn("sock-server", func(p *sim.Proc) {
		l, err := sockEps[0].Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		total := 0
		for _, sz := range sizes {
			total += sz
		}
		buf := make([]byte, 4096)
		got := 0
		for got < total {
			n, err := conn.Read(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			got += n
		}
	})
	k.Spawn("sock-client", func(p *sim.Proc) {
		p.Delay(20 * sim.Microsecond)
		conn, err := sockEps[1].Dial(p, 2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i, sz := range sizes {
			if _, err := conn.Write(p, bytes.Repeat([]byte{byte(i)}, sz)); err != nil {
				t.Error(err)
				return
			}
		}
		conn.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicEndToEnd runs the same full-stack workload twice and
// requires identical completion times: the substitution's reproducibility
// claim, end to end.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel()
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 3
		pl := cluster.New(k, cfg)
		comms := mpiWorld(pl)
		var end sim.Time
		for r := 1; r < 3; r++ {
			r := r
			k.Spawn(fmt.Sprintf("send%d", r), func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					if err := comms[r].Send(p, make([]byte, 64+i*13), 0, r); err != nil {
						t.Error(err)
					}
				}
			})
		}
		k.Spawn("recv", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for i := 0; i < 80; i++ {
				if _, err := comms[0].Recv(p, buf, mpifm.AnySource, mpifm.AnyTag); err != nil {
					t.Error(err)
				}
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic end-to-end: %v vs %v", a, b)
	}
}

// TestPacketConservation checks fabric-level accounting across a busy
// all-to-all: every injected packet is either delivered or (with lossless
// links) nothing is dropped.
func TestPacketConservation(t *testing.T) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	pl := cluster.New(k, cfg)
	eps := fm2.Attach(pl, fm2.Config{})
	want := 0
	for i := 0; i < 4; i++ {
		i := i
		eps[i].Register(1, func(p *sim.Proc, s *fm2.RecvStream) {
			s.ReceiveDiscard(p, s.Remaining())
		})
		k.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
			for j := 0; j < 4; j++ {
				if j == i {
					continue
				}
				if err := eps[i].Send(p, j, 1, make([]byte, 900)); err != nil {
					t.Error(err)
				}
			}
			for eps[i].Stats().MsgsRecvd < 3 {
				eps[i].Extract(p, 0)
				p.Delay(2 * sim.Microsecond)
			}
		})
		want += 3
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var sent, recvd int64
	for i := 0; i < 4; i++ {
		st := eps[i].Stats()
		sent += st.PacketsSent
		recvd += st.PacketsRecvd
	}
	if sent != recvd {
		t.Fatalf("packets sent %d != received %d", sent, recvd)
	}
	for _, l := range pl.Net.Links() {
		if s := l.Stats(); s.Dropped != 0 || s.Corrupted != 0 {
			t.Fatalf("link %s dropped/corrupted: %+v", l.Name(), s)
		}
	}
	_ = want
}
