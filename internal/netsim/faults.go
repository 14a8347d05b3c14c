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
// A plan holds no schedule. A link's outage sources are a fixed window or a
// flap, and a flap draws its next window from its own stream (each flap rule
// on a link has one) only when the link's frames pass the current one, so it
// lasts as long as the run.
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
	"strconv"

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

// outage is one source of a link's outage windows, and its current window
// [from, until): until is exclusive, and math.MaxInt64 means "never heals"
// (switch death). A fixed window (DownFrom/DownUntil) has no next one; a
// flap draws its next window from its own stream once the link's time passes
// the current one, so a flap lasts as long as the run and holds one window.
type outage struct {
	from, until sim.Time
	up, down    sim.Time   // a flap's mean intervals
	rng         *rand.Rand // a flap's stream; nil for a fixed window
}

// flapStream names the stream of the k-th flap (from 0) on a link:
// "flap:"+link for the first, with "#k" appended for each further one, so
// two flaps on one link draw independent windows.
func flapStream(link string, k int) string {
	if k == 0 {
		return "flap:" + link
	}
	return "flap:" + link + "#" + strconv.Itoa(k)
}

// newFlap starts a flap's stream, seeded from (seed, stream), and draws its
// first window: an up interval from time zero, then a down one.
func newFlap(seed int64, stream string, up, down sim.Time) outage {
	o := outage{up: up, down: down, rng: rand.New(rand.NewSource(linkSeed(seed, stream)))}
	o.next()
	return o
}

// next moves the source past its current window: a flap draws an up interval
// and then a down one of at least 1 ns; a spent fixed window opens no more.
func (o *outage) next() {
	if o.rng == nil {
		o.from, o.until = math.MaxInt64, math.MaxInt64
		return
	}
	o.from = addSat(o.until, expSat(o.rng, o.up))
	o.until = addSat(o.from, max(expSat(o.rng, o.down), 1))
}

// expSat draws an exponential interval of the given mean, saturating at
// math.MaxInt64 where the float product would wrap the conversion.
func expSat(rng *rand.Rand, mean sim.Time) sim.Time {
	if d := rng.ExpFloat64() * float64(mean); d < math.MaxInt64 {
		return sim.Time(d)
	}
	return math.MaxInt64
}

// addSat adds two non-negative times, saturating at math.MaxInt64.
func addSat(a, b sim.Time) sim.Time {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// linkFaults is the per-link fault state. The clean path never allocates one:
// a nil pointer is the common case and costs a single predictable branch.
type linkFaults struct {
	drop    float64
	corrupt float64
	slow    float64 // >1 scales serialization+propagation (straggler NIC/link)
	seed    int64
	rng     *rand.Rand // lazy: seeded from (seed, link name) on first use
	down    []outage
}

// inDown reports whether any of the link's outage sources is down at time
// now. A link's frame arrival times are monotone, so each source only ever
// moves forward past the windows now has left behind.
func (f *linkFaults) inDown(now sim.Time) bool {
	for i := range f.down {
		o := &f.down[i]
		for o.until <= now && o.until < math.MaxInt64 {
			o.next()
		}
		if o.from <= now {
			return true
		}
	}
	return false
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
	// from time zero for as long as the run lasts. Both must be set, and
	// their sum, the mean cycle, must be at least MinFlapCycle.
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

// MinFlapCycle is the shortest mean flap cycle (FlapMeanUp+FlapMeanDown) a
// rule may ask for. A link draws its next outage window only once its frames
// pass the current one, so at the floor a flap costs at most about one draw
// per microsecond of link time, fewer than the poll ticks of that stretch.
// The flappiest committed scenario cycles every 700 µs.
const MinFlapCycle = sim.Microsecond

// maxSlowFactor bounds SlowFactor, which scales a frame's int64 ns on the
// wire (1e18 wrapped it negative): a 128 KiB frame at 1 kB/s, the slowest a
// host profile allows, then takes 1.3e14 ns. Committed stragglers are 4×.
const maxSlowFactor = 1000

// FaultPlan is the deterministic, seeded fault model of a whole fabric: a
// seed and rules, and no schedule. Each link draws its own from the seed as
// its frames reach it, for as long as the run lasts.
type FaultPlan struct {
	// Seed is the campaign seed every per-link stream is derived from.
	Seed int64
	// Rules apply in order; later rules override fields of earlier ones on
	// links both match.
	Rules []FaultRule
}

// Validate checks the plan's rules without touching any network.
func (fp *FaultPlan) Validate() error {
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
		if r.FlapMeanUp > 0 && r.FlapMeanDown < MinFlapCycle && r.FlapMeanUp < MinFlapCycle-r.FlapMeanDown { // the sum may wrap
			return fmt.Errorf("netsim: fault rule %d: a flap every %v is under the %v floor", i, r.FlapMeanUp+r.FlapMeanDown, MinFlapCycle)
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

// ApplyFaults layers a fault plan onto the assembled fabric. Call once,
// before the simulation runs; links the plan never matches keep their
// zero-cost clean path (a nil fault state).
func (n *Network) ApplyFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	for _, l := range n.links {
		flaps := 0
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
				f.down = append(f.down, outage{from: r.DownFrom, until: until})
			}
			if r.FlapMeanUp > 0 {
				f.down = append(f.down, newFlap(plan.Seed, flapStream(l.name, flaps), r.FlapMeanUp, r.FlapMeanDown))
				flaps++
			}
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
