package fm2

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func pproPairCfg(cfg Config) (*sim.Kernel, []*Endpoint) {
	k := sim.NewKernel()
	pl := cluster.New(k, cluster.DefaultConfig())
	return k, Attach(pl, cfg)
}

// TestSendSteadyStateZeroAlloc is the alloc-regression gate on the FM 2.x
// message path (extending the BenchmarkSendStreamChurn pin to an exact
// zero): after pool warm-up, the whole send/extract/handler/credit cycle —
// pooled frames, recycled stream records, reused handler workers — must
// allocate NOTHING per message.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, msgs = 100, 500
	k, eps := pproPairCfg(Config{})
	recvd := 0
	sink := make([]byte, 2048)
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		for s.Remaining() > 0 {
			s.Receive(p, sink)
		}
		recvd++
	})
	var allocs uint64
	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 1024) // multi-packet at the 552B MTU
		send := func(n int) {
			for i := 0; i < n; i++ {
				if err := eps[0].Send(p, 1, 1, msg); err != nil {
					panic(err)
				}
			}
		}
		send(warm)
		allocs = alloctest.MinMallocs(func() { send(msgs) })
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for recvd < warm+alloctest.Windows*msgs {
			eps[1].Extract(p, 0)
			if recvd < warm+alloctest.Windows*msgs {
				p.Delay(sim.Microsecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A handful of stray runtime allocations (background timers, GC work)
	// may land in the window; per-message allocations would appear msgs
	// times over.
	if allocs > alloctest.AllowStray {
		t.Fatalf("fm2 steady-state send path allocated %d times over %d messages; must be 0/op",
			allocs, msgs)
	}
	data, ctrl := eps[0].FramePoolStats()
	if data.Allocs == 0 {
		t.Fatal("frame pool never allocated — measurement is not exercising the pool")
	}
	t.Logf("frame pool: %+v  ctrl pool: %+v  workers(recv)=%d",
		data, ctrl, eps[1].handlerWorkers())
}

// TestHandlerWorkerReuse pins the no-goroutine-churn property: thousands of
// sequential messages are serviced by ONE reused handler worker, not one
// spawn per message.
func TestHandlerWorkerReuse(t *testing.T) {
	const msgs = 300
	k, eps := pproPairCfg(Config{})
	recvd := 0
	sink := make([]byte, 64)
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.Receive(p, sink)
		recvd++
	})
	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 64)
		for i := 0; i < msgs; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) { extractUntil(p, eps[1], msgs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd != msgs {
		t.Fatalf("received %d of %d", recvd, msgs)
	}
	if w := eps[1].handlerWorkers(); w > 2 {
		t.Fatalf("sequential traffic spawned %d handler workers; reuse should need 1", w)
	}
}

// TestFramePoisonCatchesRetention proves the release poisoning's teeth: any
// payload alias illegally retained across a frame's release reads the
// poison pattern, never stale (plausible-looking) message bytes. Every run
// poisons: no option is set.
func TestFramePoisonCatchesRetention(t *testing.T) {
	k, eps := pproPairCfg(Config{})
	got := 0
	sink := make([]byte, 128)
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		s.Receive(p, sink)
		got++
	})
	var retained []byte
	k.Spawn("driver", func(p *sim.Proc) {
		payload := bytes.Repeat([]byte{0xAA}, 100)
		if err := eps[0].Send(p, 1, 1, payload); err != nil {
			panic(err)
		}
		for got < 1 {
			eps[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
		// The frame that carried the message is back in eps[0]'s pool. Draw
		// it, retain its payload alias (the contract violation), and release
		// it: the poison write must be visible through the alias.
		pkt := eps[0].Frame()
		retained = pkt.Payload
		pkt.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(retained) == 0 {
		t.Fatal("did not capture a frame alias")
	}
	for i, b := range retained {
		if b != bufpool.PoisonByte {
			t.Fatalf("retained[%d] = %#x, want poison %#x: released frames must be unreadable",
				i, b, bufpool.PoisonByte)
		}
	}
}

// TestPoisonConformance is the ownership proof: a mixed workload (multi-
// packet streams, piecewise receives, early handler returns, loopback) must
// deliver exactly the bytes sent. Every release is poisoned, so a handler or
// engine path that read a frame after it returned to its pool would deliver
// poison. CI runs this under -race.
func TestPoisonConformance(t *testing.T) {
	const msgs = 40
	k, eps := pproPairCfg(Config{})
	var want, got, wantLoop, loop [][]byte
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		// Piecewise pulls so chunks are consumed across park/resume
		// boundaries.
		out := make([]byte, 0, s.Length())
		var piece [97]byte
		for s.Remaining() > 0 {
			n := s.Receive(p, piece[:])
			out = append(out, piece[:n]...)
		}
		got = append(got, out)
	})
	eps[1].Register(2, func(p *sim.Proc, s *RecvStream) {
		// Early return: consume only 8 bytes, discard the rest — the
		// engine must recycle the unread frames safely.
		var head [8]byte
		n := s.Receive(p, head[:])
		got = append(got, append([]byte(nil), head[:n]...))
	})
	eps[0].Register(9, func(p *sim.Proc, s *RecvStream) {
		b := make([]byte, s.Length())
		s.Receive(p, b)
		loop = append(loop, b)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			size := 1 + (i*331)%3000
			buf := make([]byte, size)
			for j := range buf {
				buf[j] = byte(i*7 + j)
			}
			h := HandlerID(1 + i%2)
			if h == 2 {
				want = append(want, buf[:min(8, size)])
			} else {
				want = append(want, buf)
			}
			if err := eps[0].Send(p, 1, h, buf); err != nil {
				panic(err)
			}
			if i%5 == 0 { // loopback self-send interleaved
				wantLoop = append(wantLoop, buf)
				if err := eps[0].Send(p, 0, 9, buf); err != nil {
					panic(err)
				}
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for len(got) < msgs {
			eps[1].Extract(p, 0)
			if len(got) < msgs {
				p.Delay(sim.Microsecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(loop) != len(wantLoop) {
		t.Fatalf("delivered %d of %d messages and %d of %d loopbacks", len(got), len(want), len(loop), len(wantLoop))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d delivered bytes that differ from those sent: some path read a recycled frame", i)
		}
	}
	for i := range wantLoop {
		if !bytes.Equal(loop[i], wantLoop[i]) {
			t.Fatalf("loopback %d delivered bytes that differ from those sent: some path read a recycled buffer", i)
		}
	}
}

// TestFrameLeakFreeQuiesce checks conservation: after a workload fully
// quiesces, every frame ever drawn has been released (gets == releases), so
// nothing in the engine squirrels frames away.
func TestFrameLeakFreeQuiesce(t *testing.T) {
	const msgs = 120
	k, eps := pproPairCfg(Config{})
	recvd := 0
	sink := make([]byte, 2048)
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		for s.Remaining() > 0 {
			s.Receive(p, sink)
		}
		recvd++
	})
	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 1500)
		for i := 0; i < msgs; i++ {
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
		}
		// Long after the receiver's final credit batch can arrive — including
		// the partial batch its idle poll flushes — drain the control queue
		// so every in-flight credit frame releases.
		p.Delay(2 * sim.Millisecond)
		eps[0].Extract(p, 0)
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		extractUntil(p, eps[1], msgs)
		p.Delay(sim.Millisecond)
		eps[1].Extract(p, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for who, ep := range eps {
		data, ctrl := ep.FramePoolStats()
		for kind, s := range map[string]netsim.PoolStats{"data": data, "ctrl": ctrl} {
			outstanding := s.Gets - s.Releases
			if outstanding != 0 {
				t.Errorf("node %d %s pool leaks %d frames at quiesce (%+v)",
					who, kind, outstanding, s)
			}
		}
	}
	if eps[1].activeStreams() != 0 {
		t.Error("active streams at quiesce")
	}
}

// TestCoResidentExtractorsSingleCompletion regresses the double-retire bug:
// two extractor Procs (the co-resident-services shape) can both be parked
// in runStream on ONE stream — one delivered a mid-message packet, the
// other the last — and both wake when the handler finishes. The completion
// must count the message once and recycle the stream record once; a double
// pool insertion would hand the same record to two future messages and
// interleave their payloads.
func TestCoResidentExtractorsSingleCompletion(t *testing.T) {
	// The triggering shape: two-packet messages consumed in 8-byte pulls,
	// so the handler (~12.7us/packet of Memcpy charges) is slower than the
	// ~6.3us bus-limited packet arrival rate. Extractor A delivers the
	// first packet and parks in runStream; extractor B delivers the LAST
	// packet mid-consumption and parks too; the handler runs to completion
	// and finish() wakes both with the stream complete.
	const msgs = 30
	k, eps := pproPairCfg(Config{})
	var got [][]byte
	eps[1].Register(1, func(p *sim.Proc, s *RecvStream) {
		buf := make([]byte, s.Length())
		var piece [8]byte
		off := 0
		for s.Remaining() > 0 {
			n := s.Receive(p, piece[:])
			copy(buf[off:], piece[:n])
			off += n
		}
		got = append(got, buf)
	})
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			msg := make([]byte, 1000) // 2 packets at the 552B MTU
			for j := range msg {
				msg[j] = byte(i + j)
			}
			if err := eps[0].Send(p, 1, 1, msg); err != nil {
				panic(err)
			}
		}
	})
	for e, d := range []sim.Time{700 * sim.Nanosecond, 1100 * sim.Nanosecond} {
		k.Spawn(fmt.Sprintf("extractor%d", e), func(p *sim.Proc) {
			for len(got) < msgs {
				eps[1].Extract(p, 1)
				if len(got) < msgs {
					p.Delay(d)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := eps[1].Stats(); st.MsgsRecvd != msgs {
		t.Fatalf("MsgsRecvd = %d, want %d (double or missed completion)", st.MsgsRecvd, msgs)
	}
	if len(got) != msgs {
		t.Fatalf("handler ran %d times, want %d", len(got), msgs)
	}
	for i, buf := range got {
		for j, b := range buf {
			if b != byte(i+j) {
				t.Fatalf("message %d corrupted at byte %d: stream records crossed", i, j)
			}
		}
	}
}

// TestPoolStatsString keeps fmt coverage honest for the stats structs used
// in reports.
func TestPoolStatsString(t *testing.T) {
	k, eps := pproPairCfg(Config{})
	_ = k
	data, ctrl := eps[0].FramePoolStats()
	if fmt.Sprint(data) == "" || fmt.Sprint(ctrl) == "" {
		t.Fatal("unprintable stats")
	}
}
