package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hostmodel"
	"repro/internal/sim"
	"repro/internal/xport"
)

// runHorizon bounds a fuzzed run in virtual time.
const runHorizon = 10 * sim.Second

// delivered is the receiving handler's wait condition.
type delivered struct{ got []byte }

func (d *delivered) Done() bool { return d.got != nil }

// FuzzMachine feeds a host profile's rates, PacketMTU, link slots, framing,
// credit window, receive-ring and send-queue depths and engine Stage to
// Config.Validate. A configuration it accepts must build, and carry an
// n-byte message between two nodes, on both FM generations, to its handler
// intact in positive virtual time: Validate is the whole of what a machine
// needs, so nothing it lets through may panic, hang, or lose or corrupt a
// byte. The seed corpus (testdata/fuzz) holds both generations' profiles,
// Figure 3a's most partial engine and an input for each validation gap found
// by hand or by the fuzzer; tier-1 replays it.
//
// A waiting receiver polls every PollEmpty, so a run's wall time grows with
// its virtual time. A machine that needs more than a virtual second to move
// the message and its framing at its slowest rate, four times over (copy,
// bus, wire, bus), plus 50 us a packet, is validated but not run; a run
// still short of delivery after runHorizon has hung.
func FuzzMachine(f *testing.F) {
	f.Fuzz(func(t *testing.T, memcpy, memcpyLarge, bus, link float64, mtu, slots, framing, window, ring, sendq int, stage uint8, n int) {
		n = int(uint(n) % (1 << 17)) // a message of up to 128 KiB: big enough to wrap a 16-bit length
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*7 + 3)
		}
		for _, g := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
			m := g.Machine()
			p := &m.Profile
			p.MemcpyMBps, p.MemcpyLargeMBps, p.BusMBps, p.Link.BandwidthMBps = memcpy, memcpyLarge, bus, link
			p.PacketMTU, p.Link.Slots, p.Link.FrameOverhead, p.CreditWindow = mtu, slots, framing, window
			p.RingSlots, p.SendQSlots, p.Stage = ring, sendq, hostmodel.Stage(stage)
			cfg := m.Config(2, cluster.SingleSwitch)
			if cfg.Validate() != nil {
				return
			}
			pkts := float64(n/(mtu-16) + 1)
			wire := float64(n) + pkts*float64(framing)
			if 4*wire*1000/min(memcpy, memcpyLarge, bus, link)+pkts*float64(50*sim.Microsecond) > float64(sim.Second) {
				return
			}
			pl, err := cluster.Assemble(cfg)
			if err != nil {
				t.Fatalf("%s: Validate accepted a machine that does not build: %v", g, err)
			}
			defer pl.K.Shutdown() // a bounded run leaves fm2's handler workers parked
			sp := xport.Spaces(xport.AttachEndpoints(pl, m), "fuzz")
			var d delivered
			sp[1].Register(0, func(p *sim.Proc, s xport.RecvStream) {
				buf := make([]byte, s.Length())
				s.Receive(p, buf)
				d.got = buf
			})
			pl.K.Spawn("sender", func(p *sim.Proc) {
				if err := xport.SendGather(p, sp[0], 1, 0, msg); err != nil {
					t.Errorf("%s: send %d B: %v", g, n, err)
				}
			})
			pl.K.Spawn("receiver", func(p *sim.Proc) { sp[1].Wait(p, 0, &d) })
			if err := pl.K.RunUntil(runHorizon); err != nil {
				t.Fatalf("%s: %d-byte message: %v", g, n, err)
			}
			if pl.K.Live() > 0 {
				t.Fatalf("%s: %d-byte message not delivered by %v:\n%s", g, n, runHorizon, pl.K.HangReport())
			}
			if !bytes.Equal(d.got, msg) {
				t.Fatalf("%s: handler got %d bytes, want the %d sent", g, len(d.got), n)
			}
			if pl.K.Now() <= 0 {
				t.Fatalf("%s: delivered at virtual time %v", g, pl.K.Now())
			}
		}
	})
}
