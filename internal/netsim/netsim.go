// Package netsim models the Myrinet network fabric: point-to-point links
// with bounded bandwidth and propagation delay, crossbar switches with
// source routing, and — critically for Fast Messages — link-level
// back-pressure and no buffering inside the fabric beyond per-port slots.
//
// FM's reliability argument (paper §3.1) leans on four Myrinet properties:
// very low bit error rate, absence of buffering in the fabric, deterministic
// source routing, and link-level flow control by back-pressure. Each is an
// explicit, testable feature of this model.
package netsim

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/sim"
)

// Packet is the unit the fabric moves. Payload is opaque to the network;
// Route is the Myrinet-style source route: one output-port byte consumed at
// each switch along the path.
//
// Route storage belongs to the packet: Iface.Send computes the route into
// the inline hops array (FramePool recycles it with the struct, so steady-
// state injection allocates nothing) and switches consume it by reslicing.
// A route longer than the array — a long line or torus — spills through
// append's ordinary growth. Never copy a Packet by value: Route would go on
// aliasing the original's array.
type Packet struct {
	Src, Dst int     // node IDs (endpoint bookkeeping, not used for routing)
	Route    []uint8 // remaining hops
	hops     [routeInline]uint8
	Payload  []byte
	Ctrl     bool   // control packet: receiving NICs demux it to a dedicated queue
	Corrupt  bool   // failed the link CRC in flight; receiving NICs drop it
	Seq      uint64 // injection sequence number (diagnostics)

	// Frame recycling (see pool.go): pool owns the backing array Payload
	// aliases; the consumer calls Release when the last byte is consumed.
	pool    *FramePool
	backing []byte
}

// routeInline is the route length a Packet holds without spilling: every
// fat-tree route (3), a 16-switch line, an 8x16 torus (13).
const routeInline = 16

// Size is the number of payload bytes; framing overhead is added per link
// according to the link configuration.
func (p *Packet) Size() int { return len(p.Payload) }

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	BandwidthMBps float64  // serialization rate
	PropDelay     sim.Time // wire propagation delay
	Slots         int      // downstream input-queue depth (>=1, Build refuses less); small = hard back-pressure
	FrameOverhead int      // framing bytes added to every packet on the wire
}

// LinkStats counts traffic through a link.
type LinkStats struct {
	Packets     int64
	Bytes       int64 // payload bytes
	WireBytes   int64 // payload + framing
	Dropped     int64 // probabilistic per-packet drops
	Corrupted   int64 // frames bit-flipped in flight (dropped later by NIC CRC)
	DownDropped int64 // frames sent into an outage window (flap/death/partition)
}

// Link is a unidirectional wire from one element to the input queue of the
// next. A frame's passage (Tx) serializes it at link bandwidth and blocks,
// holding the link (back-pressure), while the downstream queue is full.
type Link struct {
	xmit   sim.Resource // the wire, one frame at a time; named "link:" + Name
	cfg    LinkConfig
	dst    *sim.Chan[*Packet]
	net    *Network // owning fabric: its shape and loss registry
	faults *linkFaults
	stats  LinkStats

	// What Name spells the link from (fabric.go): the switch at each end,
	// nil for a node, and the node at its host end — on a torus trunk, the
	// output port, which names the ring direction and VC.
	from, to *Switch
	node     int
}

// wireName is a link's transmit Resource as its name spells it.
type wireName Link

func (w *wireName) String() string { return "link:" + (*Link)(w).Name() }

// Tx is one frame's passage over one link as a resumable step sequence: the
// one body of the link's send logic. Step takes the frame as far as it can
// go at this instant and reports whether it is across; when it is not, Step
// has armed exactly one wake for p and is to be called again at that wake —
// by Iface.Send after a park on a goroutine Proc, by the Step of the sim
// Machine (NIC firmware, switch forwarder) that embeds the Tx.
type Tx struct {
	l    *Link
	pkt  *Packet
	next uint8 // the tx* step to run at the next wake
}

const (
	txAcquire   = iota // wait for the wire
	txSerialize        // charge serialization and propagation
	txDeliver          // at the far end: faults, then the downstream queue
	txRelease
)

// Step advances the frame; see Tx.
func (tx *Tx) Step(p *sim.Proc) (done bool) {
	l, pkt := tx.l, tx.pkt
	switch tx.next {
	case txAcquire:
		tx.next = txSerialize
		if !l.xmit.StartAcquire(p, 1) {
			return false
		}
		fallthrough
	case txSerialize:
		delay := sim.BytesTime(pkt.Size()+l.cfg.FrameOverhead, l.cfg.BandwidthMBps) + l.cfg.PropDelay
		if f := l.faults; f != nil && f.slow > 1 {
			// Straggler link/NIC: serialization and propagation both degrade.
			delay = sim.Time(float64(delay) * f.slow)
		}
		tx.next = txDeliver
		p.StartDelay(delay)
		return false
	case txDeliver:
		l.stats.Packets++
		l.stats.Bytes += int64(pkt.Size())
		l.stats.WireBytes += int64(pkt.Size() + l.cfg.FrameOverhead)
		tx.next = txRelease
		if !l.applyFaults(pkt, p.Now()) {
			pkt.Release() // a lost frame goes back to its sender's pool
		} else if !l.dst.StartSend(p, pkt) {
			// Holding xmit while the downstream queue is full propagates
			// stalls upstream: Myrinet back-pressure.
			return false
		}
		fallthrough
	default: // txRelease
		l.xmit.Release(1)
		return true
	}
}

// applyFaults evaluates the link's fault state for a frame arriving at
// tArr. It reports false when the frame is lost on the wire (stats and the
// loss registry updated); corruption mutates the frame in place and lets it
// travel on. Send evaluates it at the frame's arrival instant.
func (l *Link) applyFaults(pkt *Packet, tArr sim.Time) bool {
	f := l.faults
	if f == nil {
		return true
	}
	if f.inDown(tArr) {
		// The link is inside an outage window: the frame vanishes on the
		// dead wire. (A real Myrinet sender would eventually see the
		// back-pressure deadman fire; FM treats either as frame loss.)
		l.stats.DownDropped++
		l.net.noteLost(pkt, LossLinkDown)
		return false
	}
	if f.drop > 0 || f.corrupt > 0 {
		// The fault RNG is built lazily on first use, from the link's own
		// seed (ApplyFaults), so links sharing one config draw uncorrelated
		// sequences while the run stays deterministic.
		if f.rng == nil {
			f.rng = rand.New(rand.NewSource(f.seed))
		}
		if f.drop > 0 && f.rng.Float64() < f.drop {
			l.stats.Dropped++
			l.net.noteLost(pkt, LossLinkDrop)
			return false
		}
		if f.corrupt > 0 && f.rng.Float64() < f.corrupt && len(pkt.Payload) > 0 {
			// Flip one bit in place and mark the frame as failing the
			// link CRC. The frame is owned by the fabric at this point —
			// senders hand ownership to the NIC — so no other reader can
			// observe the flip before the receiving NIC discards it.
			i := f.rng.Intn(len(pkt.Payload))
			pkt.Payload[i] ^= 1 << uint(f.rng.Intn(8))
			pkt.Corrupt = true
			l.stats.Corrupted++
		}
	}
	return true
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Name reports the link's name, as fault rules match it ("n3->edge0",
// "edge0->spine1", "t0.1+x.vc0"), spelled from its ends when read.
func (l *Link) Name() string {
	var buf [48]byte
	return string(l.appendName(buf[:0]))
}

// Switch is a crossbar with source routing: the head byte of each packet's
// route selects the output port and is consumed. One forwarder per input
// port moves packets; output contention is resolved by the output
// link's FIFO transmit resource. Its input queues, output table and
// forwarders are carved from the fabric's slabs (builder).
type Switch struct {
	net        *Network
	prefix     string // the name before the index: "sw", "edge", "spine", or a torus's "t" (fabric.go)
	idx        int
	in         []sim.Chan[*Packet]
	out        []*Link
	fwd        []forwarder
	routeDelay sim.Time
}

// MaxSwitchPorts is the hard port-count bound of one crossbar: source
// routes address output ports with a single byte, so a switch beyond 256
// ports would silently truncate port numbers and misroute traffic (credit
// accounting then corrupts in ways that surface far from the cause). Scale
// past this bound comes from multi-stage fabrics — fat tree, torus — never
// from a wider crossbar, exactly as on the real hardware. Shape.Resolve
// refuses a shape that would need a wider one.
const MaxSwitchPorts = 256

// In returns the input queue for port i (the place upstream links deliver).
func (s *Switch) In(i int) *sim.Chan[*Packet] { return &s.in[i] }

// SetOut attaches the output link for port i.
func (s *Switch) SetOut(i int, l *Link) { s.out[i] = l }

// String spells the switch's name ("edge0", "t1.2"), for its forwarders'
// Procs and for panics, which format it only when they fire.
func (s *Switch) String() string {
	var buf [24]byte
	return string(s.appendName(buf[:0]))
}

// Start starts the per-port forwarders, in port order.
func (s *Switch) Start() {
	for i := range s.fwd {
		f := &s.fwd[i]
		*f = forwarder{s: s, port: i}
		s.net.K.StartMachine(&f.proc, f, f)
		f.proc.ActsFor(sim.Fabric)
	}
}

// forwarder moves one input port's packets: `Recv; route; Delay(routeDelay);
// out[port].Send`, forever, as a sim Machine — no goroutine per port, and
// none switched to per packet.
type forwarder struct {
	proc sim.Proc // the forwarder's own, laid out with it (Switch.Start)
	s    *Switch
	port int
	pkt  *Packet // the slot the input queue's StartRecv fills
	tx   Tx
	next uint8 // the fwd* step to run at the next wake
}

// String names the forwarder's Proc: "edge0.fwd3".
func (f *forwarder) String() string { return f.s.String() + ".fwd" + strconv.Itoa(f.port) }

const (
	fwdRecv = iota
	fwdRoute
	fwdSend
)

func (f *forwarder) Step(p *sim.Proc) {
	for {
		switch f.next {
		case fwdRecv:
			f.next = fwdRoute
			if !f.s.in[f.port].StartRecv(p, &f.pkt) {
				return
			}
		case fwdRoute:
			s, pkt := f.s, f.pkt
			if len(pkt.Route) == 0 {
				panic(fmt.Sprintf("netsim: packet from %d to %d exhausted its route at switch %s",
					pkt.Src, pkt.Dst, s))
			}
			port := pkt.Route[0]
			pkt.Route = pkt.Route[1:]
			if int(port) >= len(s.out) || s.out[port] == nil {
				panic(fmt.Sprintf("netsim: bad route byte %d at switch %s", port, s))
			}
			f.tx = Tx{l: s.out[port], pkt: pkt}
			f.next = fwdSend
			p.StartDelay(s.routeDelay)
			return
		case fwdSend:
			if !f.tx.Step(p) {
				return
			}
			f.next = fwdRecv
		}
	}
}
