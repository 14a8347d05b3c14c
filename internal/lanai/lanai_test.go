package lanai

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/hostmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func pair(stage hostmodel.Stage) (*sim.Kernel, []*NIC) {
	k := sim.NewKernel()
	prof := hostmodel.PPro200()
	prof.Stage = stage
	net := netsim.NewDirectPair(k, prof.Link)
	nics := make([]*NIC, 2)
	for i := 0; i < 2; i++ {
		h := hostmodel.NewHost(k, i, prof)
		nics[i] = New(h, net.Iface(i))
		nics[i].Start()
	}
	return k, nics
}

func TestHostSendToPoll(t *testing.T) {
	k, nics := pair(hostmodel.StageFull)
	var got []byte
	k.Spawn("sender", func(p *sim.Proc) {
		nics[0].HostSendPacket(p, &netsim.Packet{Payload: []byte("frame-bytes")}, 1, false)
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for {
			if pkt, ok := nics[1].Poll(); ok {
				got = pkt.Payload
				return
			}
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "frame-bytes" {
		t.Fatalf("got %q", got)
	}
	if nics[0].Stats().Sent != 1 || nics[1].Stats().Received != 1 {
		t.Fatalf("stats %+v %+v", nics[0].Stats(), nics[1].Stats())
	}
}

func TestCtrlDemuxBypassesData(t *testing.T) {
	// A control frame sent after a burst of data frames must be readable
	// from the control queue before the data is drained.
	k, nics := pair(hostmodel.StageFull)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			nics[0].HostSendPacket(p, &netsim.Packet{Payload: []byte{byte(i)}}, 1, false)
		}
		nics[0].HostSendPacket(p, &netsim.Packet{Payload: []byte{0xCC}}, 1, true)
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		pkt := nics[1].WaitCtrl(p)
		if pkt.Payload[0] != 0xCC {
			t.Errorf("ctrl payload %x", pkt.Payload)
		}
		if nics[1].RingLen() == 0 {
			t.Error("data should still be queued in the ring")
		}
		for nics[1].Stats().Received < 5 {
			nics[1].Poll()
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if nics[1].Stats().CtrlRecv != 1 {
		t.Fatalf("ctrl recv %d", nics[1].Stats().CtrlRecv)
	}
}

func TestCRCCheckDropsCorruptedFrames(t *testing.T) {
	// Every frame corrupted in flight must be discarded by the receiving
	// NIC's CRC check — never landed in the ring — and registered as a lost
	// frame (a leaked credit, from the flow-control layer's point of view).
	k := sim.NewKernel()
	prof := hostmodel.PPro200()
	net := netsim.NewDirectPair(k, prof.Link)
	plan := netsim.FaultPlan{Seed: 11, Rules: []netsim.FaultRule{{CorruptProb: 1.0}}}
	if err := net.ApplyFaults(plan); err != nil {
		t.Fatal(err)
	}
	nics := make([]*NIC, 2)
	for i := 0; i < 2; i++ {
		h := hostmodel.NewHost(k, i, prof)
		nics[i] = New(h, net.Iface(i))
		nics[i].Start()
	}
	const total = 10
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			nics[0].HostSendPacket(p, &netsim.Packet{Payload: []byte{byte(i), 0xAA}}, 1, false)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := nics[1].Stats()
	if st.CRCDropped != total || st.Received != 0 {
		t.Fatalf("want all %d frames CRC-dropped, got %+v", total, st)
	}
	if nics[1].RingLen() != 0 {
		t.Fatal("corrupted frame reached the receive ring")
	}
	if leak := net.LeakedCredits(0, 1); leak != total {
		t.Fatalf("leaked credits %d, want %d", leak, total)
	}
	lost := net.LostFrames()
	if len(lost) != 1 || lost[0].Cause != "crc" || lost[0].Count != total {
		t.Fatalf("loss registry %+v", lost)
	}
}

func TestRingStallBackpressuresWire(t *testing.T) {
	k, nics := pair(hostmodel.StageFull)
	total := nics[1].RingSlots() + 20
	sent := 0
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			nics[0].HostSendPacket(p, &netsim.Packet{Payload: []byte{1}}, 1, false)
			sent++
		}
	})
	defer k.Shutdown()
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nics[1].Stats().RingDropped != 0 {
		t.Fatal("a full ring must stall the NIC, never drop")
	}
	// The sender stalls once ring + queues + wire are full.
	if sent >= total {
		t.Fatalf("sender pushed all %d frames into a stalled receiver", total)
	}
}

// At StageLink the NIC charges no I/O-bus time for PIO or DMA.
func TestChargeBusOffSkipsBusTime(t *testing.T) {
	elapsed := func(stage hostmodel.Stage) sim.Time {
		k, nics := pair(stage)
		var end sim.Time
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				nics[0].HostSendPacket(p, &netsim.Packet{Payload: make([]byte, 512)}, 1, false)
			}
		})
		k.Spawn("receiver", func(p *sim.Proc) {
			for n := 0; n < 20; {
				if _, ok := nics[1].Poll(); ok {
					n++
					continue
				}
				p.Delay(sim.Microsecond)
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if ef, es := elapsed(hostmodel.StageLink), elapsed(hostmodel.StageFull); ef >= es {
		t.Fatalf("bus-free engine (%v) should beat bus-charged (%v)", ef, es)
	}
}

// TestFramePathZeroAlloc pins the whole hardware path of one frame in steady
// state — host PIO, send firmware, injection link, two switch forwarders and
// their links, receive firmware, DMA, ring — at zero mallocs: the firmware
// and the forwarders are sim Machines that keep their place in their own
// fields, so a packet costs them neither a coroutine switch nor a heap slot.
func TestFramePathZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, frames = 200, 1000
	k := sim.NewKernel()
	prof := hostmodel.PPro200()
	net := netsim.Shape{Topology: netsim.Line, Nodes: 2, Hosts: 1}.Build(k, prof.Link, 100*sim.Nanosecond)
	if hops := len(net.Route(0, 1)); hops != 2 {
		t.Fatalf("route crosses %d switches, want 2", hops)
	}
	nics := make([]*NIC, 2)
	for i := range nics {
		nics[i] = New(hostmodel.NewHost(k, i, prof), net.Iface(i))
		nics[i].Start()
	}
	pool := netsim.NewFramePool(prof.PacketMTU, 0)
	var allocs uint64
	k.Spawn("host", func(p *sim.Proc) {
		roundTrips := func(n int) {
			for i := 0; i < n; i++ {
				nics[0].HostSendPacket(p, pool.Get(256), 1, i%8 == 0)
				for {
					pkt, ok := nics[1].Poll()
					if !ok {
						pkt, ok = nics[1].PollCtrl()
					}
					if ok {
						pkt.Release()
						break
					}
					p.Delay(sim.Microsecond)
				}
			}
		}
		roundTrips(warm)
		allocs = alloctest.MinMallocs(func() { roundTrips(frames) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > alloctest.AllowStray {
		t.Fatalf("%d frames host to ring allocated %d times; must be 0/frame", frames, allocs)
	}
	if st := nics[1].Stats(); st.Received+st.CtrlRecv != warm+alloctest.Windows*frames || st.CtrlRecv == 0 {
		t.Fatalf("receiving NIC landed %+v", st)
	}
}
