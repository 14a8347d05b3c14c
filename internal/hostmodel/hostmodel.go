// Package hostmodel models the host side of the paper's testbeds: CPU
// per-operation costs, the I/O bus (Sbus for the FM 1.x SPARC systems, PCI
// for the FM 2.x Pentium Pro systems), and the memory system used for
// message copies.
//
// All constants live in Profile values so the benches can run the same
// protocol code on "sparc" (FM 1.x era) and "ppro200" (FM 2.x era) machines
// and reproduce the paper's near-fourfold jump in absolute bandwidth. A
// Profile also carries the MPI layer's own three per-message costs (MPI), so
// Sparc and PPro200 are the one table of every timing constant of a machine.
// The engines take no configuration: a Profile's Stage is the one way to run
// a partial engine, and lanai, flowctl and fm1 read it from their Host.
package hostmodel

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Profile is the cost table for one machine generation. Times are virtual.
type Profile struct {
	Name string

	// Memory system: copies performed by protocol layers. Packet-sized
	// copies run at cache speed; buffer-sized copies miss and run at
	// memory-system speed — the distinction that makes message-assembly
	// copies so much more expensive than FM's internal staging copies.
	MemcpyMBps           float64  // cache-resident copy bandwidth
	MemcpyLargeMBps      float64  // cache-missing copy bandwidth
	MemcpyCacheThreshold int      // copies >= this many bytes use the large rate
	MemcpySetup          sim.Time // fixed cost per memcpy call

	// I/O bus: every byte between host memory and the NIC crosses it,
	// by PIO on the send side and DMA on the receive side.
	BusMBps  float64  // effective bus bandwidth
	BusSetup sim.Time // per-transfer setup (DMA programming / PIO window)

	// Host protocol-code costs.
	SendSetup       sim.Time // per-message fixed send-path cost
	PerPacketSend   sim.Time // per-packet send-path cost (header, queue mgmt)
	PerPacketRecv   sim.Time // per-packet receive-path cost (extract loop body)
	HandlerDispatch sim.Time // invoking a message handler
	PollEmpty       sim.Time // an extract poll that finds nothing

	// NIC (LANai) firmware costs.
	NICSendPacket sim.Time // firmware work to launch one packet
	NICRecvPacket sim.Time // firmware work to land one packet

	// Wire.
	Link netsim.LinkConfig

	// Structural parameters of the FM build for this machine.
	PacketMTU    int // max FM payload bytes per packet (header included)
	RingSlots    int // host receive-ring depth, in packets
	SendQSlots   int // NIC send-queue depth, in packets
	CreditWindow int // per-sender flow-control window, in packets
	Stage        Stage

	// The MPI layer's own costs on this machine's MPI build.
	MPI MPICosts
}

// Stage is how much of the FM engine a machine runs, in the order Figure 3a
// builds it up. Only Figure 3a runs a partial engine.
type Stage uint8

const (
	StageFull        Stage = iota // the whole engine
	StageFlowControl              // no buffer management (FM 1.x's staging copy)
	StageBus                      // also no flow control (credits)
	StageLink                     // also no I/O bus (the NIC's PIO and DMA are free)
)

// MPICosts is the per-message cost of the MPI layer itself, distinct from
// data movement: argument checking, matching, request bookkeeping.
type MPICosts struct {
	Send       sim.Time // send-path protocol cost
	Recv       sim.Time // matching + completion cost
	Unexpected sim.Time // extra bookkeeping on the unexpected path
}

// Sparc is the FM 1.x era machine: SPARCstation on Sbus with the first
// Myrinet generation. Calibrated against the FM 1.x rows of the paper table
// (peak, N1/2 and latency; internal/bench/paper.go).
func Sparc() Profile {
	return Profile{
		Name:                 "sparc",
		MemcpyMBps:           38, // SuperSPARC-class copy bandwidth (in cache)
		MemcpyLargeMBps:      21, // out of cache
		MemcpyCacheThreshold: 512,
		MemcpySetup:          300 * sim.Nanosecond,
		BusMBps:              26, // Sbus PIO effective rate — the FM 1.x bottleneck
		BusSetup:             500 * sim.Nanosecond,

		SendSetup:       1500 * sim.Nanosecond,
		PerPacketSend:   1200 * sim.Nanosecond,
		PerPacketRecv:   1600 * sim.Nanosecond,
		HandlerDispatch: 800 * sim.Nanosecond,
		PollEmpty:       300 * sim.Nanosecond,

		NICSendPacket: 1300 * sim.Nanosecond,
		NICRecvPacket: 1300 * sim.Nanosecond,

		Link: netsim.LinkConfig{
			BandwidthMBps: 80, // first-generation Myrinet (640 Mb/s)
			PropDelay:     300 * sim.Nanosecond,
			Slots:         2,
			FrameOverhead: 8,
		},

		PacketMTU:    140, // 128 payload bytes + 12-byte FM header
		RingSlots:    64,
		SendQSlots:   8,
		CreditWindow: 16,

		// MPICH-era per-message costs.
		MPI: MPICosts{
			Send:       8 * sim.Microsecond,
			Recv:       10 * sim.Microsecond,
			Unexpected: 2 * sim.Microsecond,
		},
	}
}

// minMBps and maxFrameOverhead bound a profile's rates from below (1 kB/s)
// and its framing from above (more than the largest payload a packet
// carries). Far past either, one transfer's time wraps the int64
// nanoseconds of the virtual clock, and the delay it charges turns
// negative mid-run.
const (
	minMBps          = 1e-3
	maxFrameOverhead = 1<<16 - 1
)

// Validate checks the profile's constants: no time may be negative — a
// charge that turns the clock back — and PollEmpty must be positive, or a
// rank polling an empty ring would poll forever at one instant. Every rate
// must be finite and positive (a zero, negative or NaN rate models a free
// copy, bus or wire, or turns a delay negative mid-run) and at least
// minMBps, framing bytes may be neither negative nor more than
// maxFrameOverhead, a link needs at least one slot, and a host receive ring
// and a NIC send queue may be unbuffered but not negative (each panicked at
// build), and Stage is one of the four. That a PacketMTU holds an FM header
// is the engine's rule (cluster.Config.Validate).
func (p Profile) Validate() error {
	if p.PollEmpty <= 0 {
		return fmt.Errorf("hostmodel: profile %q: PollEmpty %v must be positive", p.Name, p.PollEmpty)
	}
	for _, c := range []struct {
		name string
		t    sim.Time
	}{
		{"MemcpySetup", p.MemcpySetup}, {"BusSetup", p.BusSetup},
		{"SendSetup", p.SendSetup}, {"PerPacketSend", p.PerPacketSend},
		{"PerPacketRecv", p.PerPacketRecv}, {"HandlerDispatch", p.HandlerDispatch},
		{"NICSendPacket", p.NICSendPacket}, {"NICRecvPacket", p.NICRecvPacket},
		{"Link.PropDelay", p.Link.PropDelay},
		{"MPI.Send", p.MPI.Send}, {"MPI.Recv", p.MPI.Recv}, {"MPI.Unexpected", p.MPI.Unexpected},
	} {
		if c.t < 0 {
			return fmt.Errorf("hostmodel: profile %q: negative %s %v", p.Name, c.name, c.t)
		}
	}
	for _, c := range []struct {
		name string
		r    float64
	}{
		{"MemcpyMBps", p.MemcpyMBps}, {"MemcpyLargeMBps", p.MemcpyLargeMBps},
		{"BusMBps", p.BusMBps}, {"Link.BandwidthMBps", p.Link.BandwidthMBps},
	} {
		if !(c.r > 0) || math.IsInf(c.r, 1) {
			return fmt.Errorf("hostmodel: profile %q: %s %v must be finite and positive", p.Name, c.name, c.r)
		}
		if c.r < minMBps {
			return fmt.Errorf("hostmodel: profile %q: %s %v MB/s is below %v", p.Name, c.name, c.r, minMBps)
		}
	}
	if p.Link.FrameOverhead < 0 {
		return fmt.Errorf("hostmodel: profile %q: negative Link.FrameOverhead %d", p.Name, p.Link.FrameOverhead)
	}
	if p.Link.FrameOverhead > maxFrameOverhead {
		return fmt.Errorf("hostmodel: profile %q: Link.FrameOverhead %d exceeds %d", p.Name, p.Link.FrameOverhead, maxFrameOverhead)
	}
	if p.Link.Slots < 1 {
		return fmt.Errorf("hostmodel: profile %q: Link.Slots %d must be at least 1", p.Name, p.Link.Slots)
	}
	if p.RingSlots < 0 {
		return fmt.Errorf("hostmodel: profile %q: negative RingSlots %d", p.Name, p.RingSlots)
	}
	if p.SendQSlots < 0 {
		return fmt.Errorf("hostmodel: profile %q: negative SendQSlots %d", p.Name, p.SendQSlots)
	}
	if p.Stage > StageLink {
		return fmt.Errorf("hostmodel: profile %q: unknown Stage %d", p.Name, p.Stage)
	}
	return nil
}

// PPro200 is the FM 2.x era machine: 200 MHz Pentium Pro on PCI with
// 1.28 Gb/s Myrinet. Calibrated against the FM 2.x rows of the paper table
// (peak, N1/2 and latency; internal/bench/paper.go).
func PPro200() Profile {
	return Profile{
		Name:                 "ppro200",
		MemcpyMBps:           200,
		MemcpyLargeMBps:      150,
		MemcpyCacheThreshold: 1024,
		MemcpySetup:          150 * sim.Nanosecond,
		BusMBps:              120, // PCI with DMA, effective
		BusSetup:             500 * sim.Nanosecond,

		SendSetup:       1200 * sim.Nanosecond,
		PerPacketSend:   1200 * sim.Nanosecond,
		PerPacketRecv:   1500 * sim.Nanosecond,
		HandlerDispatch: 600 * sim.Nanosecond,
		PollEmpty:       200 * sim.Nanosecond,

		NICSendPacket: 1200 * sim.Nanosecond,
		NICRecvPacket: 1200 * sim.Nanosecond,

		Link: netsim.LinkConfig{
			BandwidthMBps: 160, // 1.28 Gb/s Myrinet
			PropDelay:     200 * sim.Nanosecond,
			Slots:         2,
			FrameOverhead: 8,
		},

		// 536 payload bytes + 16-byte FM header: sized so a 512-byte user
		// payload plus a 24-byte upper-layer header (MPI's minimum, paper
		// §5) still fits one packet — the layering-aware packet sizing the
		// paper argues for.
		PacketMTU:    552,
		RingSlots:    128,
		SendQSlots:   8,
		CreditWindow: 32,

		// The leaner MPI-FM 2.0 costs.
		MPI: MPICosts{
			Send:       1 * sim.Microsecond,
			Recv:       1200 * sim.Nanosecond,
			Unexpected: 500 * sim.Nanosecond,
		},
	}
}

// HostStats counts memory and bus activity for copy-accounting experiments.
type HostStats struct {
	Memcpys     int64
	MemcpyBytes int64
	BusXfers    int64
	BusBytes    int64
}

// Host is one machine: a cost profile plus its contended I/O bus.
type Host struct {
	K     *sim.Kernel
	ID    int
	P     Profile
	Bus   *sim.Resource
	stats HostStats
}

// NewHost creates a host with the given profile.
func NewHost(k *sim.Kernel, id int, p Profile) *Host {
	return &Host{K: k, ID: id, P: p, Bus: sim.NewResource(k, "bus", 1)}
}

// Memcpy charges the calling Proc for an n-byte host-memory copy, using
// the cache-missing rate for large copies.
func (h *Host) Memcpy(p *sim.Proc, n int) {
	h.stats.Memcpys++
	h.stats.MemcpyBytes += int64(n)
	bw := h.P.MemcpyMBps
	if h.P.MemcpyCacheThreshold > 0 && n >= h.P.MemcpyCacheThreshold && h.P.MemcpyLargeMBps > 0 {
		bw = h.P.MemcpyLargeMBps
	}
	p.Delay(h.P.MemcpySetup + sim.BytesTime(n, bw))
}

// BusTransfer moves n bytes across the I/O bus (either direction),
// serializing with all other bus users on this host.
func (h *Host) BusTransfer(p *sim.Proc, n int) {
	h.Bus.Use(p, h.BusHold(n))
}

// BusHold counts an n-byte bus transfer and reports how long it holds Bus:
// BusTransfer for a caller that cannot block (the NIC's receive firmware, a
// sim Machine) and takes the hold in steps, Bus.StartUse(BusHold(n)).
func (h *Host) BusHold(n int) sim.Time {
	h.stats.BusXfers++
	h.stats.BusBytes += int64(n)
	return h.P.BusSetup + sim.BytesTime(n, h.P.BusMBps)
}

// Stats returns a copy of the host activity counters.
func (h *Host) Stats() HostStats { return h.stats }
