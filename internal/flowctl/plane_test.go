package flowctl_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// layouts are the two control-frame wire layouts in use: FM 1.x (12-byte
// header, count at 8) and FM 2.x (16-byte header, count at 10).
var layouts = []struct {
	name     string
	hdr, off int
}{
	{"fm1", 12, 8},
	{"fm2", 16, 10},
}

// planes assembles a 3-node platform with one bare Plane per node.
func planes(hdr, off int) (*sim.Kernel, *cluster.Platform, []flowctl.Plane) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	pl := cluster.New(k, cfg)
	cps := make([]flowctl.Plane, cfg.Nodes)
	for i := range cps {
		cps[i] = flowctl.NewPlane(pl.NICs[i], cfg.Nodes, hdr, off)
	}
	return k, pl, cps
}

func forEachLayout(t *testing.T, fn func(t *testing.T, hdr, off int)) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) { fn(t, l.hdr, l.off) })
	}
}

// TestPlaneRejectsForgedControlFrames: every structurally bad control frame
// counts one Malformed, goes back to its sender's pool, and moves no credit
// — in particular a forged source must not Refill an innocent sender.
func TestPlaneRejectsForgedControlFrames(t *testing.T) {
	forEachLayout(t, func(t *testing.T, hdr, off int) {
		k, pl, cps := planes(hdr, off)
		victim := &cps[0]
		window := victim.Manager().Window()
		credit := func(length int, typ byte, src, n int) []byte {
			f := make([]byte, length)
			f[0] = typ
			binary.LittleEndian.PutUint16(f[2:], uint16(src))
			if off+4 <= length {
				binary.LittleEndian.PutUint32(f[off:], uint32(n))
			}
			return f
		}
		forged := []struct {
			name  string
			frame []byte
		}{
			{"short", credit(hdr-1, 2, 1, 1)},
			{"wrong type", credit(hdr, 1, 1, 1)},
			{"src is self", credit(hdr, 2, 0, 1)},
			{"src out of range", credit(hdr, 2, 3, 1)},
			{"zero count", credit(hdr, 2, 1, 0)},
			{"count over window", credit(hdr, 2, 1, window+1)},
			{"count over outstanding", credit(hdr, 2, 1, 3)},
		}
		forge := netsim.NewFramePool(hdr, 0)
		inject := func(p *sim.Proc, frame []byte) {
			pkt := forge.Get(len(frame))
			copy(pkt.Payload, frame)
			pl.NICs[1].HostSendPacket(p, pkt, 0, true)
			p.Delay(100 * sim.Microsecond)
			victim.DrainCtrl()
		}
		k.Spawn("driver", func(p *sim.Proc) {
			// Spend credits toward both peers first, so a Refill that should
			// not happen would be visible in Available.
			victim.Acquire(p, 1)
			victim.Acquire(p, 1)
			victim.Acquire(p, 2)
			for i, f := range forged {
				inject(p, f.frame)
				if got := victim.Malformed(); got != int64(i+1) {
					t.Errorf("%s: Malformed = %d, want %d", f.name, got, i+1)
				}
				if got := forge.Stats().Releases; got != int64(i+1) {
					t.Errorf("%s: frame not released to its sender's pool (%d releases)", f.name, got)
				}
				if a1, a2 := victim.Manager().Available(1), victim.Manager().Available(2); a1 != window-2 || a2 != window-1 {
					t.Errorf("%s: moved credits: Available = %d,%d, want %d,%d", f.name, a1, a2, window-2, window-1)
				}
			}
			// A well-formed frame in this layout is still accepted.
			inject(p, credit(hdr, 2, 1, 2))
			if a1 := victim.Manager().Available(1); a1 != window {
				t.Errorf("valid refill not applied: Available(1) = %d, want %d", a1, window)
			}
			if got := victim.Malformed(); got != int64(len(forged)) {
				t.Errorf("valid frame counted malformed: %d", got)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlaneWaitersResumeOnOutOfOrderRefills is the PR 4 case: two Procs of
// one endpoint block on credits for different destinations, and the refills
// arrive in the order opposite to the one they blocked in. The Proc that
// owns the control queue absorbs a refill meant for the other; both must
// still resume.
func TestPlaneWaitersResumeOnOutOfOrderRefills(t *testing.T) {
	forEachLayout(t, func(t *testing.T, hdr, off int) {
		k, _, cps := planes(hdr, off)
		sender := &cps[0]
		window := sender.Manager().Window()
		var done1, done2 sim.Time
		k.Spawn("to1", func(p *sim.Proc) {
			for i := 0; i < window; i++ {
				sender.Acquire(p, 1)
			}
			sender.Acquire(p, 1) // blocks first: owns the control queue
			done1 = p.Now()
		})
		k.Spawn("to2", func(p *sim.Proc) {
			p.Delay(sim.Microsecond)
			for i := 0; i < window; i++ {
				sender.Acquire(p, 2)
			}
			sender.Acquire(p, 2) // blocks second: waits on the signal
			done2 = p.Now()
		})
		refill := func(node int, at sim.Time) {
			k.Spawn("refill", func(p *sim.Proc) {
				p.Delay(at)
				for i := 0; i < (window+1)/2; i++ {
					cps[node].Return(p, 0)
				}
			})
		}
		refill(2, 100*sim.Microsecond) // the later waiter's refill lands first
		refill(1, 200*sim.Microsecond)
		if err := k.Run(); err != nil {
			t.Fatalf("waiters stranded: %v", err)
		}
		if done2 == 0 || done1 == 0 || done2 >= done1 {
			t.Fatalf("resume times to1=%v to2=%v: to2 must resume on its own refill, before to1", done1, done2)
		}
	})
}

// TestPlaneIdleFlushReturnsPartialBatchOnce is the PR 9 case: a batch below
// the half-window threshold is withheld by Return, sent by the first idle
// Flush, and not sent again by the next. The frame on the wire has the
// layout's size and carries the count at the layout's offset.
func TestPlaneIdleFlushReturnsPartialBatchOnce(t *testing.T) {
	forEachLayout(t, func(t *testing.T, hdr, off int) {
		k, pl, cps := planes(hdr, off)
		recv := &cps[1]
		k.Spawn("receiver", func(p *sim.Proc) {
			recv.Return(p, 0) // one slot freed: below the threshold
			if g := recv.Pool().Stats().Gets; g != 0 {
				t.Errorf("Return sent %d control frames below the half-window threshold", g)
			}
			recv.Flush(p)
			recv.Flush(p)
			if g := recv.Pool().Stats().Gets; g != 1 {
				t.Errorf("two idle flushes sent %d control frames, want 1", g)
			}
		})
		k.Spawn("sender", func(p *sim.Proc) {
			pkt := pl.NICs[0].WaitCtrl(p)
			f := pkt.Payload
			if len(f) != hdr || f[0] != 2 || binary.LittleEndian.Uint16(f[2:]) != 1 ||
				binary.LittleEndian.Uint32(f[off:]) != 1 {
				t.Errorf("control frame % x: want %d bytes, type 2, src 1, count 1 at offset %d", f, hdr, off)
			}
			pkt.Release()
			p.Delay(sim.Millisecond)
			if _, ok := pl.NICs[0].PollCtrl(); ok {
				t.Error("the partial batch was returned twice")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if s := recv.Pool().Stats(); s.Releases != 1 {
			t.Errorf("control frame not released to its pool: %+v", s)
		}
	})
}
