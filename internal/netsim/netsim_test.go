package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// myrinet is the PPro200 profile's link (hostmodel, which this package's
// tests cannot import): 1.28 Gb/s Myrinet (~160 MB/s), sub-microsecond
// propagation, shallow per-port slack, 8 framing bytes (route + type + CRC).
func myrinet() LinkConfig {
	return LinkConfig{BandwidthMBps: 160, PropDelay: 200 * sim.Nanosecond, Slots: 2, FrameOverhead: 8}
}

func collect(p *sim.Proc, in *sim.Chan[*Packet], n int, out *[]*Packet) {
	for i := 0; i < n; i++ {
		*out = append(*out, in.Recv(p))
	}
}

func TestDirectPairDelivery(t *testing.T) {
	k := sim.NewKernel()
	net := NewDirectPair(k, myrinet())
	var got []*Packet
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte{byte(i)}})
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { collect(p, net.Iface(1).In, 10, &got) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, pkt := range got {
		if pkt.Payload[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, pkt.Payload[0])
		}
		if pkt.Src != 0 || pkt.Dst != 1 {
			t.Fatalf("bad addressing: %+v", pkt)
		}
	}
}

func TestLinkSerializationTime(t *testing.T) {
	k := sim.NewKernel()
	cfg := LinkConfig{BandwidthMBps: 100, PropDelay: sim.Microsecond, Slots: 4, FrameOverhead: 0}
	net := NewDirectPair(k, cfg)
	var arrive sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 1, Payload: make([]byte, 1000)})
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		net.Iface(1).In.Recv(p)
		arrive = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 B at 100 MB/s = 10 us, + 1 us propagation.
	if arrive != 11*sim.Microsecond {
		t.Fatalf("arrival at %v, want 11us", arrive)
	}
}

func TestLinkBandwidthShared(t *testing.T) {
	// Two back-to-back packets on one link serialize: second arrives one
	// serialization time after the first.
	k := sim.NewKernel()
	cfg := LinkConfig{BandwidthMBps: 100, PropDelay: 0, Slots: 1, FrameOverhead: 0}
	net := NewDirectPair(k, cfg)
	var times []sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: make([]byte, 1000)})
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			net.Iface(1).In.Recv(p)
			times = append(times, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if times[1]-times[0] != 10*sim.Microsecond {
		t.Fatalf("gap %v, want 10us", times[1]-times[0])
	}
}

func TestBackpressureStallsSender(t *testing.T) {
	// With Slots=1 and a receiver that never drains, the sender must stall
	// after filling the wire and the input slot.
	k := sim.NewKernel()
	cfg := LinkConfig{BandwidthMBps: 1000, PropDelay: 0, Slots: 1, FrameOverhead: 0}
	net := NewDirectPair(k, cfg)
	sent := 0
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: make([]byte, 100)})
			sent++
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		p.Delay(sim.Second) // never drains within the horizon
	})
	defer k.Shutdown()
	if err := k.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sent > 3 {
		t.Fatalf("sender pushed %d packets into a stalled path, want <=3", sent)
	}
}

func TestSingleSwitchAllPairs(t *testing.T) {
	k := sim.NewKernel()
	const n = 4
	net := Shape{Topology: SingleSwitch, Nodes: n}.Build(k, myrinet(), 300*sim.Nanosecond)
	type rx struct{ src, val int }
	got := make([][]rx, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				net.Iface(i).Send(p, &Packet{Dst: j, Payload: []byte{byte(i)}})
			}
		})
		k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			for j := 0; j < n-1; j++ {
				pkt := net.Iface(i).In.Recv(p)
				got[i] = append(got[i], rx{pkt.Src, int(pkt.Payload[0])})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if len(got[i]) != n-1 {
			t.Fatalf("node %d got %d packets, want %d", i, len(got[i]), n-1)
		}
		for _, r := range got[i] {
			if r.src != r.val {
				t.Fatalf("node %d: src %d carried %d", i, r.src, r.val)
			}
		}
	}
}

func TestLineMultiHopRouting(t *testing.T) {
	k := sim.NewKernel()
	net := Shape{Topology: Line, Nodes: 6, Hosts: 2}.Build(k, myrinet(), 300*sim.Nanosecond) // nodes 0..5
	var got []*Packet
	k.Spawn("sender", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 5, Payload: []byte("far")})
		net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte("near")})
	})
	k.Spawn("recv5", func(p *sim.Proc) { collect(p, net.Iface(5).In, 1, &got) })
	k.Spawn("recv1", func(p *sim.Proc) { collect(p, net.Iface(1).In, 1, &got) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	for _, pkt := range got {
		if len(pkt.Route) != 0 {
			t.Fatalf("route not fully consumed: %v", pkt.Route)
		}
	}
}

func TestLineRouteLengths(t *testing.T) {
	k := sim.NewKernel()
	net := Shape{Topology: Line, Nodes: 8, Hosts: 2}.Build(k, myrinet(), 0)
	// Route from node 0 (switch 0) to node 7 (switch 3): 3 trunk hops + host port.
	r := net.Route(0, 7)
	if len(r) != 4 {
		t.Fatalf("route len %d, want 4 (%v)", len(r), r)
	}
	// Reverse direction.
	r = net.Route(7, 0)
	if len(r) != 4 {
		t.Fatalf("reverse route len %d, want 4 (%v)", len(r), r)
	}
	// Same switch.
	r = net.Route(0, 1)
	if len(r) != 1 {
		t.Fatalf("local route len %d, want 1 (%v)", len(r), r)
	}
}

func TestDropInjection(t *testing.T) {
	k := sim.NewKernel()
	net := faultyPair(t, k, 42, FaultRule{DropProb: 0.5})
	const total = 200
	var got int
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: []byte{1}})
		}
	})
	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			net.Iface(1).In.Recv(p)
			got++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Iface(0).EgressStats()
	if st.Dropped == 0 {
		t.Fatal("no drops with DropProb=0.5")
	}
	if int64(got)+st.Dropped != total {
		t.Fatalf("got %d + dropped %d != %d", got, st.Dropped, total)
	}
}

func TestCorruptInjection(t *testing.T) {
	k := sim.NewKernel()
	net := faultyPair(t, k, 7, FaultRule{CorruptProb: 1.0})
	orig := []byte("payload-bytes")
	var got *Packet
	k.Spawn("sender", func(p *sim.Proc) {
		net.Iface(0).Send(p, &Packet{Dst: 1, Payload: append([]byte(nil), orig...)})
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		got = net.Iface(1).In.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Payload, orig) {
		t.Fatal("payload not corrupted despite CorruptProb=1")
	}
	diff := 0
	for i := range orig {
		if got.Payload[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 (single bit flip)", diff)
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	k := sim.NewKernel()
	cfg := myrinet()
	net := NewDirectPair(k, cfg)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			net.Iface(0).Send(p, &Packet{Dst: 1, Payload: make([]byte, 100)})
		}
	})
	var drained []*Packet
	k.Spawn("receiver", func(p *sim.Proc) { collect(p, net.Iface(1).In, 5, &drained) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Iface(0).EgressStats()
	if st.Packets != 5 || st.Bytes != 500 {
		t.Fatalf("stats %+v", st)
	}
	if st.WireBytes != 500+5*int64(cfg.FrameOverhead) {
		t.Fatalf("wire bytes %d", st.WireBytes)
	}
}

// Property: in any single-switch fabric, per-(src,dst) FIFO order holds for
// arbitrary send interleavings (deterministic routing + back-pressure means
// no reordering inside the fabric — the property FM 1.x/2.x rely on to get
// in-order delivery for free).
func TestPropertyFabricFIFOPerPair(t *testing.T) {
	f := func(plan []uint8) bool {
		if len(plan) == 0 {
			return true
		}
		if len(plan) > 60 {
			plan = plan[:60]
		}
		k := sim.NewKernel()
		const n = 3
		net := Shape{Topology: SingleSwitch, Nodes: n}.Build(k, myrinet(), 100*sim.Nanosecond)
		// Node 0 sends interleaved packets to 1 and 2 per plan bits.
		counts := [n]int{}
		for _, b := range plan {
			counts[1+int(b)%2]++
		}
		k.Spawn("sender", func(p *sim.Proc) {
			seq := [n]int{}
			for i, b := range plan {
				dst := 1 + int(b)%2
				payload := []byte{byte(dst), byte(seq[dst])}
				seq[dst]++
				if i%3 == 0 {
					p.Delay(sim.Time(b) * sim.Nanosecond)
				}
				net.Iface(0).Send(p, &Packet{Dst: dst, Payload: payload})
			}
		})
		ok := true
		for d := 1; d < n; d++ {
			d := d
			k.Spawn(fmt.Sprintf("recv%d", d), func(p *sim.Proc) {
				for i := 0; i < counts[d]; i++ {
					pkt := net.Iface(d).In.Recv(p)
					if int(pkt.Payload[1]) != i {
						ok = false
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTrunkContentionSlowsPairs(t *testing.T) {
	// Two flows crossing the same trunk must each get about half the trunk.
	k := sim.NewKernel()
	cfg := myrinet()
	net := Shape{Topology: Line, Nodes: 4, Hosts: 2}.Build(k, cfg, 0) // nodes 0,1 on sw0; 2,3 on sw1
	const pkts, size = 50, 1000
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		src, dst := i, i+2 // 0->2 and 1->3, both over the single trunk
		k.Spawn(fmt.Sprintf("flow%d", i), func(p *sim.Proc) {
			for j := 0; j < pkts; j++ {
				net.Iface(src).Send(p, &Packet{Dst: dst, Payload: make([]byte, size)})
			}
		})
		k.Spawn(fmt.Sprintf("sink%d", i), func(p *sim.Proc) {
			for j := 0; j < pkts; j++ {
				net.Iface(dst).In.Recv(p)
			}
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	end := done[0]
	if done[1] > end {
		end = done[1]
	}
	// Two flows of 50 kB over a 160 MB/s trunk need >= 100kB/160MBps = 625us.
	min := sim.BytesTime(2*pkts*size, cfg.BandwidthMBps)
	if end < min {
		t.Fatalf("finished at %v, impossible given trunk capacity (min %v)", end, min)
	}
}
