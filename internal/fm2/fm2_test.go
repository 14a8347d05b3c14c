package fm2

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/sim"
)

func pproPair() (*sim.Kernel, *cluster.Platform, []*Endpoint) {
	k := sim.NewKernel()
	pl := cluster.New(k, cluster.DefaultConfig())
	return k, pl, Attach(pl, Config{})
}

func pproCluster(n int) (*sim.Kernel, *cluster.Platform, []*Endpoint) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = n
	pl := cluster.New(k, cfg)
	return k, pl, Attach(pl, Config{})
}

// extractUntil polls until want messages have completed.
func extractUntil(p *sim.Proc, e *Endpoint, want int) {
	got := 0
	for got < want {
		got += e.Extract(p, 0)
		if got < want {
			p.Delay(sim.Microsecond)
		}
	}
}

// sendGather transmits the concatenation of pieces as one message, one
// SendPiece per piece: the header+payload pattern of protocol layers over FM.
func sendGather(p *sim.Proc, e *Endpoint, dst int, h flowctl.HandlerID, pieces ...[]byte) error {
	total := 0
	for _, pc := range pieces {
		total += len(pc)
	}
	s, err := e.BeginMessage(p, dst, total, h)
	if err != nil {
		return err
	}
	for _, pc := range pieces {
		if err := s.SendPiece(p, pc); err != nil {
			return err
		}
	}
	return s.EndMessage(p)
}

// sinkHandler returns a handler that receives the whole message into a
// scratch buffer and appends a copy to out.
func sinkHandler(out *[][]byte) Handler {
	return func(p *sim.Proc, s *RecvStream) {
		buf := make([]byte, s.Length())
		n := s.Receive(p, buf)
		*out = append(*out, buf[:n])
	}
}

func TestStreamRoundtrip(t *testing.T) {
	k, _, eps := pproPair()
	var got [][]byte
	eps[1].Register(1, sinkHandler(&got))
	msg := []byte("fast messages 2.x stream")
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, msg); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Fatalf("got %q", got)
	}
	if eps[1].activeStreams() != 0 {
		t.Fatal("stream not retired")
	}
}

func TestGatherArbitraryPieces(t *testing.T) {
	// Compose one message from many odd-sized pieces; the receiver must
	// see the concatenation regardless of piece boundaries.
	k, _, eps := pproPair()
	var got [][]byte
	eps[1].Register(1, sinkHandler(&got))
	pieces := [][]byte{
		bytes.Repeat([]byte{1}, 3),
		bytes.Repeat([]byte{2}, 497),
		bytes.Repeat([]byte{3}, 1),
		bytes.Repeat([]byte{4}, 1200),
		bytes.Repeat([]byte{5}, 7),
	}
	var want []byte
	for _, pc := range pieces {
		want = append(want, pc...)
	}
	k.Spawn("sender", func(p *sim.Proc) {
		if err := sendGather(p, eps[0], 1, 1, pieces...); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatal("gathered message corrupted")
	}
}

func TestScatterArbitraryReceives(t *testing.T) {
	// The handler pulls the message in chunk sizes unrelated to either the
	// sender's pieces or packet boundaries (paper: "the number and sizes of
	// the pieces need not match on the two sides").
	k, _, eps := pproPair()
	msg := make([]byte, 3000)
	for i := range msg {
		msg[i] = byte(i)
	}
	var got []byte
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		sizes := []int{1, 9, 100, 700, 2000, 10000}
		for _, sz := range sizes {
			buf := make([]byte, sz)
			n := s.Receive(p, buf)
			got = append(got, buf[:n]...)
			if n < sz {
				break
			}
		}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := sendGather(p, eps[0], 1, 1, msg[:13], msg[13:2048], msg[2048:]); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("scattered message corrupted")
	}
}

func TestHeaderThenPayloadPattern(t *testing.T) {
	// The canonical handler from paper §4.1: read a header piece, decide on
	// a buffer, then receive the payload directly into it.
	k, _, eps := pproPair()
	type hdr struct{ little bool }
	payload := bytes.Repeat([]byte{0xAB}, 900)
	var landed []byte
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		var h [1]byte
		s.Receive(p, h[:])
		buf := make([]byte, s.Remaining())
		s.Receive(p, buf)
		landed = buf
		_ = hdr{little: h[0] == 1}
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := sendGather(p, eps[0], 1, 1, []byte{0}, payload); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(landed, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestHandlerStartsBeforeMessageComplete(t *testing.T) {
	// FM 2.x starts the handler on the first packet; with a long message
	// the handler must observe data before the sender has finished
	// (pipelining, paper §4.1 "Transparent Handler Multithreading").
	k, _, eps := pproPair()
	const size = 32 * 1024
	var firstByteAt, sendDoneAt sim.Time
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		var b [1]byte
		s.Receive(p, b[:])
		firstByteAt = p.Now()
		s.ReceiveDiscard(p, s.Remaining())
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, make([]byte, size)); err != nil {
			t.Error(err)
		}
		sendDoneAt = p.Now()
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firstByteAt == 0 || sendDoneAt == 0 {
		t.Fatal("timestamps not recorded")
	}
	if firstByteAt >= sendDoneAt {
		t.Fatalf("no pipelining: first byte at %v, send done at %v", firstByteAt, sendDoneAt)
	}
}

func TestInterleavedSendersDemuxedToThreads(t *testing.T) {
	// Long messages from several senders interleave packet-by-packet at the
	// receiver; each handler thread must still see its own message as a
	// clean sequential stream.
	const nodes = 4
	k, _, eps := pproCluster(nodes)
	const size = 8 * 1024
	got := map[int][]byte{}
	eps[0].Register(1, func(p *sim.Proc, s *RecvStream) {
		buf := make([]byte, s.Length())
		s.Receive(p, buf)
		got[s.Src()] = buf
	})
	for i := 1; i < nodes; i++ {
		i := i
		k.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			msg := bytes.Repeat([]byte{byte(i)}, size)
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
		if len(got[i]) != size {
			t.Fatalf("node %d message wrong size %d", i, len(got[i]))
		}
		for _, b := range got[i] {
			if b != byte(i) {
				t.Fatalf("node %d stream crossed with another sender", i)
			}
		}
	}
	if eps[0].activeStreams() != 0 {
		t.Fatal("streams not retired")
	}
}

func TestOneLongMessageDoesNotBlockOtherSenders(t *testing.T) {
	// Paper §4.1: "one long message from one sender does not block other
	// senders". A short message sent after a long transfer has begun must
	// complete before the long one.
	k, _, eps := pproCluster(3)
	var order []string
	eps[0].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		if s.Length() > 1000 {
			order = append(order, "long")
		} else {
			order = append(order, "short")
		}
	})
	k.Spawn("long-sender", func(p *sim.Proc) {
		if err := eps[1].Send(p, 0, 1, make([]byte, 256*1024)); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("short-sender", func(p *sim.Proc) {
		p.Delay(50 * sim.Microsecond) // start after the long transfer is underway
		if err := eps[2].Send(p, 0, 1, []byte{1}); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[0], 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "short" {
		t.Fatalf("completion order %v, want short first", order)
	}
}

func TestExtractByteLimit(t *testing.T) {
	// Extract(maxBytes) must stop at the packet boundary after maxBytes:
	// receiver flow control (paper §4.1).
	k, _, eps := pproPair()
	mtu := eps[1].MTU()
	const nPkts = 6
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, make([]byte, nPkts*mtu)); err != nil {
			t.Error(err)
		}
	})
	var consumed int
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		for s.Remaining() > 0 {
			consumed += s.ReceiveDiscard(p, mtu)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		p.Delay(5 * sim.Millisecond) // let everything arrive
		before := eps[1].Stats().PacketsRecvd
		eps[1].Extract(p, 1) // 1 byte -> exactly one packet
		if got := eps[1].Stats().PacketsRecvd - before; got != 1 {
			t.Errorf("Extract(1) processed %d packets, want 1", got)
		}
		eps[1].Extract(p, 2*mtu) // exactly two packets
		if got := eps[1].Stats().PacketsRecvd - before; got != 3 {
			t.Errorf("after Extract(2*mtu) total %d packets, want 3", got)
		}
		eps[1].Extract(p, mtu+1) // rounds up to two packets
		if got := eps[1].Stats().PacketsRecvd - before; got != 5 {
			t.Errorf("after Extract(mtu+1) total %d packets, want 5", got)
		}
		extractUntil(p, eps[1], 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if consumed != nPkts*mtu {
		t.Fatalf("consumed %d, want %d", consumed, nPkts*mtu)
	}
}

func TestHandlerEarlyReturnDiscardsRest(t *testing.T) {
	k, _, eps := pproPair()
	const size = 4096
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		var b [16]byte
		s.Receive(p, b[:]) // look at 16 bytes, ignore the rest
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, make([]byte, size)); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := eps[1].Stats()
	if st.DiscardedBytes != size-16 {
		t.Fatalf("discarded %d, want %d", st.DiscardedBytes, size-16)
	}
	if eps[1].activeStreams() != 0 {
		t.Fatal("stream not retired after early return")
	}
}

func TestZeroLengthMessage(t *testing.T) {
	k, _, eps := pproPair()
	calls := 0
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		if s.Length() != 0 {
			t.Errorf("length %d", s.Length())
		}
		if n := s.Receive(p, make([]byte, 10)); n != 0 {
			t.Errorf("received %d bytes from empty message", n)
		}
		calls++
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, nil); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("handler called %d times", calls)
	}
}

func TestInOrderManyMessages(t *testing.T) {
	k, _, eps := pproPair()
	const n = 300
	var seen []int
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		var b [2]byte
		s.Receive(p, b[:])
		seen = append(seen, int(b[0])|int(b[1])<<8)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := eps[0].Send(p, 1, 1, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], n) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("got %d messages", len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestAPIErrors(t *testing.T) {
	k, _, eps := pproPair()
	k.Spawn("sender", func(p *sim.Proc) {
		if _, err := eps[0].BeginMessage(p, 1, -1, 1); err == nil {
			t.Error("negative size accepted")
		}
		if _, err := eps[0].BeginMessage(p, 1, DefaultMaxMessage+1, 1); err == nil {
			t.Error("oversize accepted")
		}
		s, err := eps[0].BeginMessage(p, 1, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SendPiece(p, make([]byte, 5)); err == nil {
			t.Error("piece overflow accepted")
		}
		if err := s.EndMessage(p); err == nil {
			t.Error("EndMessage with missing bytes accepted")
		}
		if err := s.SendPiece(p, make([]byte, 4)); err != nil {
			t.Error(err)
		}
		if err := s.EndMessage(p); err != nil {
			t.Error(err)
		}
		if err := s.EndMessage(p); err == nil {
			t.Error("double EndMessage accepted")
		}
		if err := s.SendPiece(p, []byte{1}); err == nil {
			t.Error("SendPiece after EndMessage accepted")
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		var done bool
		eps[1].Register(1, func(hp *sim.Proc, s *RecvStream) {
			s.ReceiveDiscard(hp, s.Remaining())
			done = true
		})
		for !done {
			eps[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownHandlerSwallowsWholeMessage(t *testing.T) {
	k, _, eps := pproPair()
	mtu := eps[0].MTU()
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 42, make([]byte, 3*mtu)); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for eps[1].Stats().PacketsRecvd < 3 {
			eps[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := eps[1].Stats()
	if st.UnknownHandler != 1 {
		t.Fatalf("UnknownHandler = %d, want 1", st.UnknownHandler)
	}
	if st.MsgsRecvd != 0 {
		t.Fatalf("MsgsRecvd = %d, want 0", st.MsgsRecvd)
	}
	if eps[1].activeStreams() != 0 {
		t.Fatal("drop stream not retired")
	}
}

func TestFlowControlNeverOverrunsRing(t *testing.T) {
	k, pl, eps := pproPair()
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
	})
	const total = 200
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if err := eps[0].Send(p, 1, 1, make([]byte, 300)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		// A lazy receiver that extracts rarely and in small bites.
		for eps[1].Stats().MsgsRecvd < total {
			p.Delay(100 * sim.Microsecond)
			eps[1].Extract(p, 2048)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.NICs[1].Stats().RingDropped != 0 {
		t.Fatal("receive ring overrun despite flow control")
	}
	// After draining pending control packets, at most a partial batch below
	// the half-window return threshold may remain outstanding.
	eps[0].Credit.DrainCtrl()
	if out := eps[0].FlowControl().Outstanding(1); out > eps[0].FlowControl().Window()/2 {
		t.Fatalf("%d credits stranded, more than half a window", out)
	}
}

func TestSendPieceBlocksOnCreditsNotReceiver(t *testing.T) {
	// A sender with exhausted credits parks; once the receiver extracts,
	// credits return and the send completes.
	k, _, eps := pproPair()
	w := eps[0].FlowControl().Window()
	mtu := eps[0].MTU()
	total := (w + 8) * mtu
	recvd := 0
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		recvd++
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, make([]byte, total)); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		p.Delay(2 * sim.Millisecond) // sender must exhaust its window first
		extractUntil(p, eps[1], 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd != 1 {
		t.Fatalf("recvd %d", recvd)
	}
}

func TestStatsAccounting(t *testing.T) {
	k, _, eps := pproPair()
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
	})
	const n, size = 20, 1000
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
		t.Fatalf("packets: sent %d recvd %d", s0.PacketsSent, s1.PacketsRecvd)
	}
}

// Property: any way of splitting a message into send pieces and any way of
// splitting the receive into chunk sizes yields identical bytes — the
// stream abstraction's core invariant.
func TestPropertyGatherScatterEquivalence(t *testing.T) {
	f := func(pieceSeed, chunkSeed []uint8, sizeSeed uint16) bool {
		size := int(sizeSeed)%5000 + 1
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*31 + 7)
		}
		// Split into pieces per pieceSeed.
		var pieces [][]byte
		rest := msg
		for _, s := range pieceSeed {
			if len(rest) == 0 {
				break
			}
			n := int(s)%len(rest) + 1
			pieces = append(pieces, rest[:n])
			rest = rest[n:]
		}
		if len(rest) > 0 {
			pieces = append(pieces, rest)
		}

		k, _, eps := pproPair()
		var got []byte
		eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
			i := 0
			for s.Remaining() > 0 {
				var n int
				if len(chunkSeed) > 0 {
					n = int(chunkSeed[i%len(chunkSeed)])%977 + 1
				} else {
					n = 128
				}
				i++
				buf := make([]byte, n)
				m := s.Receive(p, buf)
				got = append(got, buf[:m]...)
			}
		})
		k.Spawn("sender", func(p *sim.Proc) {
			if err := sendGather(p, eps[0], 1, 1, pieces...); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], 1) })
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent messages from multiple senders with random sizes all
// arrive intact, FIFO per sender.
func TestPropertyMultiSenderIntegrity(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		const nodes = 3
		k, _, eps := pproCluster(nodes)
		type rec struct {
			src int
			sum byte
			n   int
		}
		var recs []rec
		eps[0].Register(1, func(p *sim.Proc, s *RecvStream) {
			buf := make([]byte, s.Length())
			s.Receive(p, buf)
			var sum byte
			for _, b := range buf {
				sum += b
			}
			recs = append(recs, rec{s.Src(), sum, len(buf)})
		})
		total := 0
		for snd := 1; snd < nodes; snd++ {
			snd := snd
			k.Spawn(fmt.Sprintf("send%d", snd), func(p *sim.Proc) {
				for i, sz := range sizes {
					if i%(nodes-1) != snd-1 {
						continue
					}
					n := int(sz)%4000 + 1
					msg := bytes.Repeat([]byte{byte(snd*10 + i)}, n)
					if err := eps[snd].Send(p, 0, 1, msg); err != nil {
						t.Error(err)
					}
				}
			})
			for i := range sizes {
				if i%(nodes-1) == snd-1 {
					total++
				}
			}
		}
		k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[0], total) })
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		return len(recs) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerComputeChargesReceiverCPU(t *testing.T) {
	// Handler Delay must advance the extracting node's time: handlers and
	// Extract share one CPU.
	k, _, eps := pproPair()
	const compute = 500 * sim.Microsecond
	var extractTook sim.Time
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.ReceiveDiscard(p, s.Remaining())
		p.Delay(compute)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		if err := eps[0].Send(p, 1, 1, []byte{1}); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		start := p.Now()
		extractUntil(p, eps[1], 1)
		extractTook = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if extractTook < compute {
		t.Fatalf("extract took %v, handler compute %v not charged", extractTook, compute)
	}
}

func TestLoopbackSelfSend(t *testing.T) {
	// A message to the sender's own node takes the host-memcpy loopback
	// path: delivered to the local handler at EndMessage, no NIC involved.
	k, _, eps := pproPair()
	var got [][]byte
	eps[0].Register(1, sinkHandler(&got))
	payload := bytes.Repeat([]byte{0xAB}, 3000) // > MTU: still one memcpy path
	k.Spawn("node0", func(p *sim.Proc) {
		if err := sendGather(p, eps[0], 0, 1, []byte("hdr:"), payload); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], append([]byte("hdr:"), payload...)) {
		t.Fatalf("loopback delivered %d messages, bytes wrong", len(got))
	}
	st := eps[0].Stats()
	if st.MsgsSent != 1 || st.MsgsRecvd != 1 {
		t.Errorf("stats %+v, want 1 sent and 1 received", st)
	}
	if st.PacketsSent != 0 || st.PacketsRecvd != 0 {
		t.Errorf("loopback touched the NIC: %+v", st)
	}
	if eps[0].activeStreams() != 0 {
		t.Errorf("loopback stream leaked: %d active", eps[0].activeStreams())
	}
}

func TestLoopbackUnknownHandlerDiscards(t *testing.T) {
	k, _, eps := pproPair()
	k.Spawn("node0", func(p *sim.Proc) {
		if err := eps[0].Send(p, 0, 99, []byte{1, 2, 3}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := eps[0].Stats()
	if st.UnknownHandler != 1 || st.DiscardedBytes != 3 || st.MsgsRecvd != 0 {
		t.Errorf("stats %+v, want the loopback message swallowed", st)
	}
}

func TestLoopbackAdvancesVirtualTime(t *testing.T) {
	// The loopback path charges send setup, the gather memcpy, handler
	// dispatch, and the handler's own Receive copies — it is not free.
	k, _, eps := pproPair()
	eps[0].Register(1, func(p *sim.Proc, s *RecvStream) {
		buf := make([]byte, s.Remaining())
		s.Receive(p, buf)
	})
	var took sim.Time
	k.Spawn("node0", func(p *sim.Proc) {
		start := p.Now()
		if err := eps[0].Send(p, 0, 1, make([]byte, 4096)); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if took == 0 {
		t.Fatal("loopback send took zero virtual time")
	}
}

// BenchmarkSendStreamChurn locks in frame and stream-record reuse on the
// send hot path: pieces gather directly into pooled NIC frames (header
// written in place) and stream records recycle at EndMessage. The exact
// steady-state pin — 0 allocs per message across the whole
// send/extract/handler/credit cycle — lives in TestSendSteadyStateZeroAlloc;
// this bench keeps the setup-inclusive number visible in `-bench` output.
func BenchmarkSendStreamChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, _, eps := pproPair()
		eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
			s.ReceiveDiscard(p, s.Remaining())
		})
		const msgs = 500
		k.Spawn("sender", func(p *sim.Proc) {
			msg := make([]byte, 1024)
			for m := 0; m < msgs; m++ {
				if err := eps[0].Send(p, 1, 1, msg); err != nil {
					b.Error(err)
				}
			}
		})
		k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], msgs) })
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
