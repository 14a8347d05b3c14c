// Scheduled fault injection: the chaos layer of the fabric model.
//
// Per-packet drop and corruption probabilities model Myrinet's (very low)
// residual error rate. Real machines also die in more structured ways — a
// link flaps, a switch loses power, one NIC runs hot and slow, a partition
// opens and heals — and a scenario engine needs all of those as *data*, not
// as hand-written drivers. A FaultPlan is that data, and the only way to
// inject a fault: a seed plus a list of rules, each matching links by name
// glob and layering fault behavior onto them.
//
// Determinism contract: every random decision on a link is drawn from a
// stream seeded by (plan seed XOR fnv64a(link name)), so
//
//   - the same plan on the same topology replays bit-identically, and
//   - two links under one rule produce UNCORRELATED schedules: "10% loss on
//     every uplink" must not mean "the same packets lost on every uplink".
//
// Corruption models the Myrinet link CRC (paper §3.1): a corrupted frame is
// marked (Packet.Corrupt), carried to the receiving NIC, and dropped there
// with a CRCDropped stat — it never reaches the protocol engines, exactly as
// a CRC-failing frame never reaches FM on the real hardware.
package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path"
	"sort"

	"repro/internal/sim"
)

// linkSeed derives the per-link RNG seed from a base seed and the link's
// name: base XOR fnv64a(name). Links sharing a config therefore get
// uncorrelated fault streams while the whole run stays reproducible.
func linkSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64())
}

// downWindow is one interval during which a link is dead. until is exclusive;
// math.MaxInt64 means "never heals" (switch death).
type downWindow struct {
	from, until sim.Time
}

// linkFaults is the per-link fault state. The clean path never allocates one:
// a nil pointer is the common case and costs a single predictable branch.
type linkFaults struct {
	drop    float64
	corrupt float64
	slow    float64 // >1 scales serialization+propagation (straggler NIC/link)
	seed    int64
	rng     *rand.Rand // lazy: seeded from (seed, link name) on first use
	down    []downWindow
	downIdx int // monotone cursor: virtual time never runs backwards
}

// inDown reports whether the link is inside an outage window at time now.
// Windows are sorted and merged, and per-link send times are monotone, so a
// single advancing cursor suffices.
func (f *linkFaults) inDown(now sim.Time) bool {
	for f.downIdx < len(f.down) && f.down[f.downIdx].until <= now {
		f.downIdx++
	}
	return f.downIdx < len(f.down) && f.down[f.downIdx].from <= now
}

// FaultRule layers fault behavior onto every link whose name matches Links.
// Zero-valued fields leave the link's existing behavior untouched, so rules
// compose: a later rule can add corruption to links an earlier rule slowed.
type FaultRule struct {
	// Links is a path.Match glob against link names ("n3->*", "edge0->spine*",
	// "*"). Empty matches all links. Link names are stable per topology:
	// hosts inject on "n<i>->...", switches transmit on "...-><target>".
	Links string

	// DropProb / CorruptProb set per-packet loss and corruption probability.
	DropProb    float64
	CorruptProb float64

	// FlapMeanUp/FlapMeanDown enable link flapping: alternating up/down
	// intervals with exponentially distributed durations of these means,
	// scheduled from time zero to the plan horizon. Both must be set.
	FlapMeanUp, FlapMeanDown sim.Time

	// DownFrom/DownUntil schedule one outage window [from, until). Until == 0
	// with From > 0 means the link never heals — switch death. Two rules with
	// complementary windows express partition-and-heal.
	DownFrom, DownUntil sim.Time

	// SlowFactor > 1 multiplies the link's serialization and propagation
	// time: a straggler NIC or a degraded cable. At most maxSlowFactor.
	SlowFactor float64
}

// match reports whether the rule applies to a link name.
func (r *FaultRule) match(name string) bool {
	if r.Links == "" || r.Links == "*" {
		return true
	}
	ok, _ := path.Match(r.Links, name)
	return ok
}

// DefaultFaultHorizon bounds flap-schedule generation when the plan does not
// set one: one virtual second, far past any scenario deadline in use.
const DefaultFaultHorizon = sim.Second

// MaxFlapWindows bounds the outage windows one flap rule may schedule per
// link: ApplyFaults precomputes them up to the plan horizon, 16 bytes each,
// so a mean cycle of a few nanoseconds ran a campaign out of memory before it
// modelled anything. At the bound a link's schedule is 1 MiB, over five
// hundred times the flappiest committed scenario's (~120 windows per link).
const MaxFlapWindows = 1 << 16

// maxSlowFactor bounds SlowFactor, which scales a frame's int64 ns on the
// wire (1e18 wrapped it negative): a 128 KiB frame at 1 kB/s, the slowest a
// host profile allows, then takes 1.3e14 ns. Committed stragglers are 4×.
const maxSlowFactor = 1000

// FaultPlan is a deterministic, seeded fault schedule for a whole fabric.
type FaultPlan struct {
	// Seed is the campaign seed every per-link stream is derived from.
	Seed int64
	// Horizon bounds flap-schedule generation (0 = DefaultFaultHorizon).
	Horizon sim.Time
	// Rules apply in order; later rules override fields of earlier ones on
	// links both match.
	Rules []FaultRule
}

// Validate checks the plan's rules without touching any network.
func (fp *FaultPlan) Validate() error {
	if fp.Horizon < 0 {
		return fmt.Errorf("netsim: fault plan horizon %d is negative", fp.Horizon)
	}
	for i, r := range fp.Rules {
		if r.Links != "" {
			if _, err := path.Match(r.Links, "probe"); err != nil {
				return fmt.Errorf("netsim: fault rule %d: bad link glob %q: %v", i, r.Links, err)
			}
		}
		if !(r.DropProb >= 0 && r.DropProb <= 1) { // NaN too
			return fmt.Errorf("netsim: fault rule %d: drop probability %v outside [0,1]", i, r.DropProb)
		}
		if !(r.CorruptProb >= 0 && r.CorruptProb <= 1) {
			return fmt.Errorf("netsim: fault rule %d: corrupt probability %v outside [0,1]", i, r.CorruptProb)
		}
		if (r.FlapMeanUp > 0) != (r.FlapMeanDown > 0) {
			return fmt.Errorf("netsim: fault rule %d: flapping needs both FlapMeanUp and FlapMeanDown", i)
		}
		if r.FlapMeanUp < 0 || r.FlapMeanDown < 0 {
			return fmt.Errorf("netsim: fault rule %d: negative flap interval", i)
		}
		if cyc := r.FlapMeanUp + r.FlapMeanDown; cyc > 0 && fp.horizon()/cyc > MaxFlapWindows {
			return fmt.Errorf("netsim: fault rule %d: a flap every %v up to %v is ~%d outage windows per link, over the %d bound",
				i, cyc, fp.horizon(), fp.horizon()/cyc, MaxFlapWindows)
		}
		if r.DownFrom < 0 || r.DownUntil < 0 {
			return fmt.Errorf("netsim: fault rule %d: negative outage bound", i)
		}
		if r.DownUntil > 0 && r.DownUntil <= r.DownFrom {
			return fmt.Errorf("netsim: fault rule %d: outage window [%d,%d) is empty", i, r.DownFrom, r.DownUntil)
		}
		if s := r.SlowFactor; !(s == 0 || s >= 1 && s <= maxSlowFactor) { // below 1 speeds the link up
			return fmt.Errorf("netsim: fault rule %d: slow factor %v is neither 0 nor in [1, %d]", i, s, maxSlowFactor)
		}
	}
	return nil
}

// horizon is the time flap schedules run to.
func (fp *FaultPlan) horizon() sim.Time {
	if fp.Horizon == 0 {
		return DefaultFaultHorizon
	}
	return fp.Horizon
}

// flapWindows generates a link's outage windows from its own RNG stream:
// alternating exponential up/down intervals from time zero to the horizon.
func flapWindows(seed int64, name string, up, down, horizon sim.Time) []downWindow {
	rng := rand.New(rand.NewSource(linkSeed(seed, "flap:"+name)))
	var wins []downWindow
	t := sim.Time(rng.ExpFloat64() * float64(up))
	for t < horizon {
		d := sim.Time(rng.ExpFloat64() * float64(down))
		if d < 1 {
			d = 1
		}
		wins = append(wins, downWindow{from: t, until: t + d})
		t += d + sim.Time(rng.ExpFloat64()*float64(up))
	}
	return wins
}

// mergeWindows sorts outage windows and coalesces overlaps so the per-send
// cursor scan stays a single monotone pass.
func mergeWindows(wins []downWindow) []downWindow {
	if len(wins) <= 1 {
		return wins
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].from < wins[j].from })
	out := wins[:1]
	for _, w := range wins[1:] {
		last := &out[len(out)-1]
		if w.from <= last.until {
			if w.until > last.until {
				last.until = w.until
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// ApplyFaults layers a fault plan onto the assembled fabric. Call once,
// before the simulation runs; links the plan never matches keep their
// zero-cost clean path (a nil fault state).
func (n *Network) ApplyFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	horizon := plan.horizon()
	for _, l := range n.links {
		for ri := range plan.Rules {
			r := &plan.Rules[ri]
			if !r.match(l.name) {
				continue
			}
			if l.faults == nil {
				l.faults = &linkFaults{seed: plan.Seed}
			}
			f := l.faults
			if r.DropProb > 0 {
				f.drop = r.DropProb
			}
			if r.CorruptProb > 0 {
				f.corrupt = r.CorruptProb
			}
			if r.SlowFactor > 0 {
				f.slow = r.SlowFactor
			}
			if r.DownFrom > 0 || r.DownUntil > 0 {
				until := r.DownUntil
				if until == 0 {
					until = math.MaxInt64
				}
				f.down = append(f.down, downWindow{from: r.DownFrom, until: until})
			}
			if r.FlapMeanUp > 0 {
				f.down = append(f.down, flapWindows(plan.Seed, l.name, r.FlapMeanUp, r.FlapMeanDown, horizon)...)
			}
		}
		if f := l.faults; f != nil {
			f.down = mergeWindows(f.down)
		}
	}
	return nil
}

// LossCause classifies where a frame was lost.
type LossCause uint8

const (
	// LossLinkDrop is a probabilistic per-packet drop (residual error rate).
	LossLinkDrop LossCause = iota
	// LossLinkDown is a frame sent into an outage window (flap, death,
	// partition).
	LossLinkDown
	// LossCRC is a corrupted frame discarded by the receiving NIC's CRC
	// check.
	LossCRC
)

// String names the cause for reports.
func (c LossCause) String() string {
	switch c {
	case LossLinkDrop:
		return "link-drop"
	case LossLinkDown:
		return "link-down"
	case LossCRC:
		return "crc"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// lostKey identifies one (flow, cause) bucket in the loss registry.
type lostKey struct {
	src, dst int
	ctrl     bool
	cause    LossCause
}

// LostFrame is one aggregated loss record: how many frames of a flow were
// lost to one cause. A lost DATA frame is a leaked flow-control credit — the
// sender consumed a credit the receiver will never see a ring slot for, and
// FM has no retransmit — so these records are exactly the credit-leak
// accounting a hang diagnostic needs. A lost CTRL frame is a lost credit
// refill, which strands the sender the same way from the other side.
type LostFrame struct {
	Src, Dst int
	Ctrl     bool
	Cause    string
	Count    int64
}

// noteLost records a lost frame in the owning network's registry. Loss is
// rare by construction, so a lazily-built map is fine; reports sort.
func (n *Network) noteLost(pkt *Packet, cause LossCause) {
	if n == nil {
		return
	}
	if n.lost == nil {
		n.lost = make(map[lostKey]int64)
	}
	n.lost[lostKey{src: pkt.Src, dst: pkt.Dst, ctrl: pkt.Ctrl, cause: cause}]++
}

// NoteLost records a frame lost outside the fabric proper (the NIC's CRC
// check) against this node's network.
func (ifc *Iface) NoteLost(pkt *Packet, cause LossCause) { ifc.net.noteLost(pkt, cause) }

// LostFrames returns every loss record, sorted by (src, dst, cause, ctrl) so
// reports are deterministic.
func (n *Network) LostFrames() []LostFrame {
	out := make([]LostFrame, 0, len(n.lost))
	for k, c := range n.lost {
		out = append(out, LostFrame{Src: k.src, Dst: k.dst, Ctrl: k.ctrl, Cause: k.cause.String(), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		return !a.Ctrl && b.Ctrl
	})
	return out
}

// LeakedCredits reports the number of data frames from src to dst lost
// anywhere between the sender's NIC and the receiver's ring: each is one
// flow-control credit src holds against dst that can never be returned.
// src or dst of -1 wildcards that side.
func (n *Network) LeakedCredits(src, dst int) int64 {
	var total int64
	for k, c := range n.lost {
		if k.ctrl {
			continue
		}
		if src >= 0 && k.src != src {
			continue
		}
		if dst >= 0 && k.dst != dst {
			continue
		}
		total += c
	}
	return total
}
