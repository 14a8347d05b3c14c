package fm1

import (
	"bytes"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

func sparcPairCfg(cfg Config) (*sim.Kernel, []*Endpoint) {
	k := sim.NewKernel()
	ccfg := cluster.DefaultConfig()
	ccfg.Profile = hostmodel.Sparc() // 128B payload MTU: multi-packet at a few hundred bytes
	pl := cluster.New(k, ccfg)
	return k, Attach(pl, cfg)
}

// TestSendSteadyStateZeroAlloc gates the FM 1.x path too: pooled frames on
// the send side, in-ring dispatch plus pooled reassembly on the receive
// side — nothing allocates per message once the pools are warm.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, msgs = 100, 400
	k, eps := sparcPairCfg(Config{})
	recvd := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) { recvd++ })
	var allocs uint64
	k.Spawn("sender", func(p *sim.Proc) {
		msg := make([]byte, 500) // multi-packet at the 140B Sparc MTU
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
			eps[1].Extract(p)
			if recvd < warm+alloctest.Windows*msgs {
				p.Delay(sim.Microsecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Stray runtime allocations (background timers, GC work) may land in
	// the window; per-message allocations would appear msgs times over.
	if allocs > alloctest.AllowStray {
		t.Fatalf("fm1 steady-state send path allocated %d times over %d messages; must be 0/op",
			allocs, msgs)
	}
	if s := eps[1].asmPoolStats(); s.Gets == 0 || s.Allocs > 4 {
		t.Fatalf("reassembly pool not recycling: %+v", s)
	}
}

// TestPoisonRetentionContract enforces the documented FM 1.x handler
// contract — data is valid only for the duration of the call — with teeth:
// an alias retained past the handler's return reads poison after the frame
// recycles, never stale message bytes. Every run poisons: no option is set.
func TestPoisonRetentionContract(t *testing.T) {
	k, eps := sparcPairCfg(Config{})
	var retained []byte
	got := 0
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {
		if got == 0 {
			retained = data // contract violation: alias kept past return
		}
		got++
	})
	k.Spawn("sender", func(p *sim.Proc) {
		// Single-packet messages: the handler's data aliases the frame
		// itself, which recycles immediately after the handler returns.
		if err := eps[0].Send(p, 1, 1, bytes.Repeat([]byte{0x5C}, 64)); err != nil {
			panic(err)
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for got < 1 {
			eps[1].Extract(p)
			if got < 1 {
				p.Delay(sim.Microsecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(retained) != 64 {
		t.Fatalf("retained %d bytes, want 64", len(retained))
	}
	for i, b := range retained {
		if b != bufpool.PoisonByte {
			t.Fatalf("retained[%d] = %#x, want poison %#x: frames must be unreadable after recycle",
				i, b, bufpool.PoisonByte)
		}
	}
}

// TestPoisonConformance runs a mixed single/multi-packet workload and
// requires every delivery to be the bytes sent: since every release is
// poisoned, proof that neither the engine nor a well-behaved handler reads
// recycled frames or assembly buffers.
func TestPoisonConformance(t *testing.T) {
	const msgs = 30
	k, eps := sparcPairCfg(Config{})
	var sent, got [][]byte
	eps[1].Register(1, func(p *sim.Proc, src int, data []byte) {
		got = append(got, append([]byte(nil), data...))
	})
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			size := 1 + (i*97)%700 // straddles the single/multi packet split
			buf := make([]byte, size)
			for j := range buf {
				buf[j] = byte(i*13 + j)
			}
			sent = append(sent, buf)
			if err := eps[0].Send(p, 1, 1, buf); err != nil {
				panic(err)
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		for len(got) < msgs {
			eps[1].Extract(p)
			if len(got) < msgs {
				p.Delay(sim.Microsecond)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d messages", len(got), msgs)
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("message %d delivered %d bytes that differ from the %d sent: some path read a recycled buffer",
				i, len(got[i]), len(sent[i]))
		}
	}
}
