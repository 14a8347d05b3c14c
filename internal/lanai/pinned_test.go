package lanai

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hostmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The firmware loops and the switch forwarders are sim Machines; the schedule
// they produce is pinned here to the one the goroutine daemons they replaced
// produced. Each digest below was taken from the commit before the port
// (189b62c) by running this same file there, and covers, packet for packet,
// every arrival a host saw — (time, src, seq, ctrl) per node — every NIC's
// counters, every link's counters and the event count.

// pinnedHorizon is where the pollers stop: long after every sender is done,
// the stalled rings included. The last poll is the one at the horizon; the
// wake after it ends the poller, so the pinned event counts still include
// the one tick each poller had queued past it.
const pinnedHorizon = 2 * sim.Millisecond

// pinnedFaults: a corrupting uplink and a dropping one, a downlink that is
// down for a window, a straggler host link.
var pinnedFaults = netsim.FaultPlan{Seed: 23, Rules: []netsim.FaultRule{
	{Links: "edge1->spine*", CorruptProb: 0.15},
	{Links: "edge6->spine1", DropProb: 0.2},
	{Links: "spine2->edge3", DownFrom: 150 * sim.Microsecond, DownUntil: 400 * sim.Microsecond},
	{Links: "n12->*", SlowFactor: 3},
}}

// pinnedRun drives seeded bursty all-to-all traffic, data and control, over a
// fat tree with one-slot ports and four-slot rings. Hosts poll every 100 ns,
// except nodes 5 and 9, whose rings stay undrained for the first 300 us — the
// stall the back-pressure path needs.
func pinnedRun(t *testing.T) string {
	t.Helper()
	prof := hostmodel.PPro200()
	prof.Link.Slots = 1
	prof.RingSlots = 4
	prof.SendQSlots = 2

	k := sim.NewKernel()
	defer k.Shutdown()
	// 8 edge switches x 2 hosts under 4 spines: three-hop routes.
	net := netsim.NewFatTree(k, 8, 2, 4, prof.Link, 100*sim.Nanosecond)
	if err := net.ApplyFaults(pinnedFaults); err != nil {
		t.Fatal(err)
	}

	n := net.Nodes()
	nics := make([]*NIC, n)
	logs := make([][]string, n)
	for i := range nics {
		i := i
		nics[i] = New(hostmodel.NewHost(k, i, prof), net.Iface(i), Config{})
		nics[i].Start()

		// Everything random is drawn before the run.
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		type frame struct {
			dst, size int
			ctrl      bool
			gap       sim.Time
		}
		frames := make([]frame, 60)
		for j := range frames {
			dst := rng.Intn(n - 1)
			if dst >= i {
				dst++
			}
			if j%5 == 0 {
				dst = 5 + 4*(j/5%2) // keep the undrained rings overrun
			}
			f := frame{dst: dst, size: 1 + rng.Intn(500), ctrl: rng.Intn(4) == 0}
			if rng.Intn(3) == 0 { // two frames in three go back to back
				f.gap = sim.Time(rng.Intn(20)) * sim.Microsecond
			}
			if f.dst == i {
				f.dst = (i + 1) % n
			}
			frames[j] = f
		}
		k.Spawn(fmt.Sprintf("host%d.send", i), func(p *sim.Proc) {
			p.Delay(sim.Time(i) * 700 * sim.Nanosecond)
			for _, f := range frames {
				nics[i].HostSendPacket(p, &netsim.Packet{Payload: make([]byte, f.size)}, f.dst, f.ctrl)
				if f.gap > 0 {
					p.Delay(f.gap)
				}
			}
		})
		k.SpawnDaemon(fmt.Sprintf("host%d.poll", i), func(p *sim.Proc) {
			if i == 5 || i == 9 {
				p.Delay(300 * sim.Microsecond)
			}
			for {
				for _, poll := range []func() (*netsim.Packet, bool){nics[i].PollCtrl, nics[i].Poll} {
					if pkt, ok := poll(); ok {
						logs[i] = append(logs[i], fmt.Sprintf("%d %d %d %v", p.Now(), pkt.Src, pkt.Seq, pkt.Ctrl))
					}
				}
				p.Delay(100 * sim.Nanosecond)
				if p.Now() > pinnedHorizon {
					return
				}
			}
		})
	}
	// A sender still blocked once the pollers have stopped is a deadlock.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var arrivals int
	var all Stats
	for i, nic := range nics {
		st := nic.Stats()
		fmt.Fprintf(h, "node %d %+v %v\n", i, st, logs[i])
		arrivals += len(logs[i])
		all.Sent += st.Sent
		all.Received += st.Received
		all.CtrlRecv += st.CtrlRecv
		all.RingDropped += st.RingDropped
		all.CRCDropped += st.CRCDropped
	}
	var wire netsim.LinkStats
	for _, l := range net.Links() {
		st := l.Stats()
		fmt.Fprintf(h, "%s %+v\n", l.Name(), st)
		wire.Dropped += st.Dropped
		wire.DownDropped += st.DownDropped
	}
	// The digests were pinned when a partitioned row shared this hash; its
	// stall count reads 0 on one kernel.
	fmt.Fprintf(h, "events %d lost %v cut stalls 0\n", k.Events(), net.LostFrames())
	// The scenario has to have been on the paths it is here for.
	if all.Sent != int64(n*60) || all.CRCDropped == 0 || wire.Dropped == 0 || wire.DownDropped == 0 {
		t.Fatalf("scenario lost its coverage: NICs %+v, links %+v", all, wire)
	}
	if all.RingDropped != 0 {
		t.Fatalf("%d ring drops: a full ring must stall", all.RingDropped)
	}
	t.Logf("%d arrivals, %d events; NICs %+v", arrivals, k.Events(), all)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestFirmwareAndForwardersKeepThePinnedSchedule(t *testing.T) {
	for _, c := range []struct {
		name string
		want string
	}{
		{"stall", "fdb4f02d0ac92e69"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := pinnedRun(t); got != c.want {
				t.Fatalf("schedule digest %s, pinned %s", got, c.want)
			}
		})
	}
}
