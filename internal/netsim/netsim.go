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
	Ctrl     bool     // control packet: receiving NICs demux it to a dedicated queue
	Corrupt  bool     // failed the link CRC in flight; receiving NICs drop it
	Inject   sim.Time // time the packet entered the fabric
	Seq      uint64   // injection sequence number (diagnostics)

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
	Slots         int      // downstream input-queue depth (>=1); small = hard back-pressure
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
	name   string
	cfg    LinkConfig
	xmit   *sim.Resource
	dst    *sim.Chan[*Packet]
	net    *Network // owning fabric (loss registry); nil for standalone links
	faults *linkFaults
	stats  LinkStats
}

// NewLink creates a link delivering into dst.
func NewLink(k *sim.Kernel, name string, cfg LinkConfig, dst *sim.Chan[*Packet]) *Link {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	return &Link{
		name: name,
		cfg:  cfg,
		xmit: sim.NewResource(k, "link:"+name, 1),
		dst:  dst,
	}
}

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
		// The fault RNG is built lazily on first use and seeded from
		// (seed, link name), so links sharing one config draw
		// uncorrelated sequences while the run stays deterministic.
		if f.rng == nil {
			f.rng = rand.New(rand.NewSource(linkSeed(f.seed, l.name)))
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

// Name reports the link's debug name.
func (l *Link) Name() string { return l.name }

// Switch is a crossbar with source routing: the head byte of each packet's
// route selects the output port and is consumed. One forwarder per input
// port moves packets; output contention is resolved by the output
// link's FIFO transmit resource.
type Switch struct {
	k          *sim.Kernel
	name       string
	in         []*sim.Chan[*Packet]
	out        []*Link
	routeDelay sim.Time
}

// MaxSwitchPorts is the hard port-count bound of one crossbar: source
// routes address output ports with a single byte, so a switch beyond 256
// ports would silently truncate port numbers and misroute traffic (credit
// accounting then corrupts in ways that surface far from the cause). Scale
// past this bound comes from multi-stage fabrics — fat tree, torus — never
// from a wider crossbar, exactly as on the real hardware.
const MaxSwitchPorts = 256

// NewSwitch creates a switch with the given number of ports. Output links
// must be attached with SetOut before Start.
func NewSwitch(k *sim.Kernel, name string, ports int, routeDelay sim.Time, slots int) *Switch {
	if ports > MaxSwitchPorts {
		panic(fmt.Sprintf("netsim: switch %s wants %d ports; route bytes address at most %d — use a multi-stage fabric",
			name, ports, MaxSwitchPorts))
	}
	s := &Switch{k: k, name: name, out: make([]*Link, ports), routeDelay: routeDelay}
	for i := 0; i < ports; i++ {
		s.in = append(s.in, sim.NewChan[*Packet](k, slots))
	}
	return s
}

// In returns the input queue for port i (the place upstream links deliver).
func (s *Switch) In(i int) *sim.Chan[*Packet] { return s.in[i] }

// SetOut attaches the output link for port i.
func (s *Switch) SetOut(i int, l *Link) { s.out[i] = l }

// Start spawns the per-port forwarders.
func (s *Switch) Start() {
	fwd := make([]forwarder, len(s.in))
	for i := range fwd {
		fwd[i] = forwarder{s: s, in: s.in[i]}
		s.k.SpawnMachine(fmt.Sprintf("%s.fwd%d", s.name, i), &fwd[i]).ActsFor(sim.Fabric)
	}
}

// forwarder moves one input port's packets: `Recv; route; Delay(routeDelay);
// out[port].Send`, forever, as a sim Machine — no goroutine per port, and
// none switched to per packet.
type forwarder struct {
	s    *Switch
	in   *sim.Chan[*Packet]
	pkt  *Packet // the slot in.StartRecv fills
	tx   Tx
	next uint8 // the fwd* step to run at the next wake
}

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
			if !f.in.StartRecv(p, &f.pkt) {
				return
			}
		case fwdRoute:
			s, pkt := f.s, f.pkt
			if len(pkt.Route) == 0 {
				panic(fmt.Sprintf("netsim: packet from %d to %d exhausted its route at switch %s",
					pkt.Src, pkt.Dst, s.name))
			}
			port := pkt.Route[0]
			pkt.Route = pkt.Route[1:]
			if int(port) >= len(s.out) || s.out[port] == nil {
				panic(fmt.Sprintf("netsim: bad route byte %d at switch %s", port, s.name))
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
