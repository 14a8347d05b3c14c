package fm1

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

func sparcPair() (*sim.Kernel, *cluster.Platform, []*Endpoint) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Profile = hostmodel.Sparc()
	pl := cluster.New(k, cfg)
	return k, pl, Attach(pl, Config{})
}

func sparcCluster(n int) (*sim.Kernel, *cluster.Platform, []*Endpoint) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Profile = hostmodel.Sparc()
	cfg.Nodes = n
	pl := cluster.New(k, cfg)
	return k, pl, Attach(pl, Config{})
}

// extractUntil polls Extract until want messages have been handled.
func extractUntil(p *sim.Proc, e *Endpoint, want int) {
	got := 0
	for got < want {
		got += e.Extract(p)
		if got < want {
			p.Delay(sim.Microsecond)
		}
	}
}

func TestSendExtractRoundtrip(t *testing.T) {
	k, _, eps := sparcPair()
	msg := []byte("hello fast messages")
	var got []byte
	var gotSrc int
	eps[1].Register(7, func(p *sim.Proc, src int, data []byte) {
		gotSrc = src
		got = append([]byte(nil), data...)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 7, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
	if gotSrc != 0 {
		t.Fatalf("src %d, want 0", gotSrc)
	}
}

func TestSend4(t *testing.T) {
	k, _, eps := sparcPair()
	var got []byte
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {
		got = append([]byte(nil), data...)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send4(p, 1, 1, 0x11111111, 0x22222222, 0x33333333, 0x44444444); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("got %d bytes, want 16", len(got))
	}
	if got[0] != 0x11 || got[15] != 0x44 {
		t.Fatalf("payload %x", got)
	}
}

func TestMultiFragmentReassembly(t *testing.T) {
	k, _, eps := sparcPair()
	// 1000 bytes over a 116-byte MTU: 9 fragments.
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var got []byte
	eps[1].Register(2, func(p *sim.Proc, src int, data []byte) {
		got = append([]byte(nil), data...)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 2, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reassembled message differs")
	}
	st := eps[0].Stats()
	wantPkts := (len(msg) + eps[0].MTU() - 1) / eps[0].MTU()
	if st.PacketsSent != int64(wantPkts) {
		t.Fatalf("sent %d packets, want %d", st.PacketsSent, wantPkts)
	}
}

func TestInOrderDelivery(t *testing.T) {
	k, _, eps := sparcPair()
	const n = 200
	var seen []int
	eps[1].Register(3, func(p *sim.Proc, src int, data []byte) {
		seen = append(seen, int(data[0])|int(data[1])<<8)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := eps[0].Send(p, 1, 3, []byte{byte(i), byte(i >> 8), 0, 0}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], n) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestSenderDecoupledFromReceiver(t *testing.T) {
	// The sender must be able to push a full credit window while the
	// receiver computes without servicing the network (paper §3: "FM
	// provides buffering so that senders can make progress").
	k, _, eps := sparcPair()
	window := eps[0].FlowControl().Window()
	sent := 0
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < window; i++ {
			if err := eps[0].Send(p, 1, 1, []byte{1}); err != nil {
				t.Error(err)
			}
			sent++
		}
	})
	// Receiver never extracts; run bounded.
	defer k.Shutdown()
	if err := k.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sent != window {
		t.Fatalf("sender pushed %d msgs unserviced, want full window %d", sent, window)
	}
}

func TestFlowControlBlocksAtWindow(t *testing.T) {
	k, pl, eps := sparcPair()
	window := eps[0].FlowControl().Window()
	sent := 0
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < window+10; i++ {
			if err := eps[0].Send(p, 1, 1, []byte{1}); err != nil {
				t.Error(err)
			}
			sent++
		}
	})
	defer k.Shutdown()
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sent > window {
		t.Fatalf("sender exceeded window without extract: %d > %d", sent, window)
	}
	// NIC ring must never have been overrun.
	if pl.NICs[1].Stats().RingDropped != 0 {
		t.Fatal("ring dropped packets despite flow control")
	}
}

func TestCreditsResumeBlockedSender(t *testing.T) {
	k, _, eps := sparcPair()
	window := eps[0].FlowControl().Window()
	total := window * 3
	recvd := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) { recvd++ })
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if err := eps[0].Send(p, 1, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], total) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd != total {
		t.Fatalf("received %d, want %d", recvd, total)
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	const nodes = 5
	k, _, eps := sparcCluster(nodes)
	const per = 30
	counts := map[int]int{}
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) { counts[src]++ })
	for i := 1; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				if err := eps[i].Send(p, 0, 1, []byte{byte(i), byte(j)}); err != nil {
					t.Error(err)
				}
			}
		})
	}
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[0], (nodes-1)*per) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nodes; i++ {
		if counts[i] != per {
			t.Fatalf("from node %d: %d msgs, want %d", i, counts[i], per)
		}
	}
}

func TestInterleavedMultiFragmentSenders(t *testing.T) {
	// Fragments from different sources interleave in the ring; per-source
	// reassembly must still produce intact messages.
	const nodes = 4
	k, _, eps := sparcCluster(nodes)
	want := map[int][]byte{}
	got := map[int][]byte{}
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) {
		got[src] = append([]byte(nil), data...)
	})
	for i := 1; i < nodes; i++ {
		i := i
		msg := bytes.Repeat([]byte{byte(i)}, 700+i*113)
		want[i] = msg
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			if err := eps[i].Send(p, 0, 1, msg); err != nil {
				t.Error(err)
			}
		})
	}
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[0], nodes-1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nodes; i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message from %d corrupted: %d vs %d bytes", i, len(got[i]), len(want[i]))
		}
	}
}

func TestUnknownHandlerCounted(t *testing.T) {
	k, _, eps := sparcPair()
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 99, []byte{1}); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for eps[1].Stats().UnknownHandler == 0 {
			eps[1].Extract(p)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if eps[1].Stats().UnknownHandler != 1 {
		t.Fatalf("UnknownHandler = %d", eps[1].Stats().UnknownHandler)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	k, _, eps := sparcPair()
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, make([]byte, DefaultMaxMessage+1)); err == nil {
			t.Error("oversize send accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackSelfSend(t *testing.T) {
	// A self-send dispatches the local handler directly — a host path with
	// no NIC packets — and counts in the endpoint stats like any delivery.
	k, _, eps := sparcPair()
	var got []byte
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) {
		if src != 0 {
			t.Errorf("loopback src %d, want 0", src)
		}
		got = append([]byte(nil), data...)
	})
	msg := []byte{1, 2, 3, 4}
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 0, 1, msg); err != nil {
			t.Error(err)
		}
		// Unknown handler: swallowed silently, as on the remote path.
		if err := eps[0].Send(p, 0, 77, msg); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("loopback delivered %v", got)
	}
	st := eps[0].Stats()
	if st.MsgsSent != 2 || st.MsgsRecvd != 1 || st.UnknownHandler != 1 {
		t.Errorf("stats %+v, want 2 sent, 1 received, 1 unknown", st)
	}
	if st.PacketsSent != 0 || st.PacketsRecvd != 0 {
		t.Errorf("loopback touched the NIC: %+v", st)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, _, eps := sparcPair()
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	eps[0].Register(1, func(p *sim.Proc, src int, data []byte) {})
}

func TestStatsAccounting(t *testing.T) {
	k, _, eps := sparcPair()
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {})
	const n, size = 10, 300
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := eps[0].Send(p, 1, 1, make([]byte, size)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], n) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s0, s1 := eps[0].Stats(), eps[1].Stats()
	if s0.MsgsSent != n || s0.BytesSent != n*size {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MsgsRecvd != n || s1.BytesRecvd != n*size {
		t.Fatalf("receiver stats %+v", s1)
	}
	if s1.PacketsRecvd != s0.PacketsSent {
		t.Fatalf("packet counts differ: %d vs %d", s1.PacketsRecvd, s0.PacketsSent)
	}
}

// Property: any sequence of message sizes arrives intact and in order.
func TestPropertyArbitrarySizesIntact(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		k, _, eps := sparcPair()
		var sent, rcvd [][]byte
		eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {
			rcvd = append(rcvd, append([]byte(nil), data...))
		})
		k.Spawn("sender", func(p *sim.Proc) {
			for i, s := range sizes {
				n := int(s)%2000 + 1
				msg := make([]byte, n)
				for j := range msg {
					msg[j] = byte(i + j)
				}
				sent = append(sent, msg)
				if err := eps[0].Send(p, 1, 1, msg); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], len(sizes)) })
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		if len(rcvd) != len(sent) {
			return false
		}
		for i := range sent {
			if !bytes.Equal(sent[i], rcvd[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOutstandingNeverExceedsWindow(t *testing.T) {
	k, _, eps := sparcPair()
	w := eps[0].FlowControl().Window()
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {})
	const n = 100
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := eps[0].Send(p, 1, 1, make([]byte, 50)); err != nil {
				t.Error(err)
			}
			if out := eps[0].FlowControl().Outstanding(1); out > w {
				t.Errorf("outstanding %d > window %d", out, w)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], n) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
