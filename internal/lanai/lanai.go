// Package lanai models the Myrinet network interface: a LANai-style
// processor running send and receive firmware loops, a send queue in NIC
// SRAM fed by host PIO, and a receive ring in pinned host memory filled by
// NIC DMA. Both FM generations talk to the network exclusively through this
// interface, as on the real hardware.
package lanai

import (
	"fmt"

	"repro/internal/hostmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// RingPolicy selects what the receive firmware does when the host receive
// ring is full.
type RingPolicy int

const (
	// RingStall blocks the NIC (and, through link back-pressure, the whole
	// upstream path) until the host frees a slot. This is what the Myrinet
	// wire does physically.
	RingStall RingPolicy = iota
	// RingDrop discards the packet, as a NIC must when it may not stall the
	// wire. Used by the flow-control ablation to show why FM needs credits.
	RingDrop
)

// Config adjusts the NIC for staged-engine experiments.
type Config struct {
	OnRingFull RingPolicy
	ChargeBus  bool // false only in the Figure 3a "link management only" stage
}

// DefaultConfig is the full NIC as FM uses it.
func DefaultConfig() Config { return Config{OnRingFull: RingStall, ChargeBus: true} }

// Stats counts NIC activity.
type Stats struct {
	Sent        int64
	Received    int64
	CtrlRecv    int64
	RingDropped int64
	CRCDropped  int64 // frames discarded by the link-level CRC check
}

// NIC is one node's network interface.
type NIC struct {
	H   *hostmodel.Host
	Ifc *netsim.Iface
	cfg Config

	sendq *sim.Chan[*netsim.Packet] // NIC SRAM send queue (host -> firmware)
	ring  *sim.Chan[*netsim.Packet] // pinned-host-memory receive ring (firmware -> host)
	ctrlq *sim.Chan[*netsim.Packet] // demuxed control packets (credits)

	stats Stats
}

// New creates a NIC bound to a host and a fabric interface. Call Start to
// launch the firmware.
func New(h *hostmodel.Host, ifc *netsim.Iface, cfg Config) *NIC {
	p := h.P
	return &NIC{
		H:     h,
		Ifc:   ifc,
		cfg:   cfg,
		sendq: sim.NewChan[*netsim.Packet](h.K, p.SendQSlots),
		ring:  sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
		ctrlq: sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
	}
}

// Start spawns the send and receive firmware daemons.
func (n *NIC) Start() {
	k := n.H.K
	k.SpawnDaemon(fmt.Sprintf("nic%d.send", n.H.ID), n.sendFirmware)
	k.SpawnDaemon(fmt.Sprintf("nic%d.recv", n.H.ID), n.recvFirmware)
}

// sendFirmware drains the SRAM send queue onto the wire.
func (n *NIC) sendFirmware(p *sim.Proc) {
	for {
		pkt := n.sendq.Recv(p)
		p.Delay(n.H.P.NICSendPacket)
		n.Ifc.Send(p, pkt) // serialization + fabric back-pressure
		n.stats.Sent++
	}
}

// recvFirmware lands packets from the wire into host memory by DMA.
func (n *NIC) recvFirmware(p *sim.Proc) {
	for {
		pkt := n.Ifc.In.Recv(p)
		p.Delay(n.H.P.NICRecvPacket)
		if pkt.Corrupt {
			// Link-level CRC check (paper §3.1): Myrinet computes a CRC per
			// link, so a frame corrupted in flight is discarded here, before
			// any DMA — FM never sees it, and its reliability argument holds
			// without per-message checksums. A lost DATA frame still leaks the
			// flow-control credit its sender spent; the fabric's loss registry
			// records that for hang diagnostics.
			n.stats.CRCDropped++
			n.Ifc.NoteLost(pkt, netsim.LossCRC)
			pkt.Release()
			continue
		}
		if n.cfg.ChargeBus {
			n.H.BusTransfer(p, len(pkt.Payload)) // DMA into the ring
		}
		if pkt.Ctrl {
			// Control packets go to a dedicated queue so credit updates are
			// never stuck behind undrained data (the firmware demux FM
			// relies on for deadlock-freedom).
			n.ctrlq.Send(p, pkt)
			n.stats.CtrlRecv++
			continue
		}
		switch n.cfg.OnRingFull {
		case RingStall:
			n.ring.Send(p, pkt) // blocks when full: wire back-pressure
			n.stats.Received++
		case RingDrop:
			if n.ring.TrySend(pkt) {
				n.stats.Received++
			} else {
				n.stats.RingDropped++
				n.Ifc.NoteLost(pkt, netsim.LossRingFull)
				pkt.Release() // dropped frame goes straight back to its pool
			}
		}
	}
}

// HostSend transfers a framed packet from the host into the NIC send queue,
// charging PIO time on the I/O bus and blocking while the queue is full.
// The caller must be the host application Proc. The frame is wrapped in a
// fresh unpooled packet; protocol engines on the zero-allocation path use
// HostSendPacket with pool-drawn frames instead.
func (n *NIC) HostSend(p *sim.Proc, dst int, frame []byte, ctrl bool) {
	n.HostSendPacket(p, &netsim.Packet{Payload: frame}, dst, ctrl)
}

// HostSendPacket transfers an already-framed packet (typically drawn from a
// netsim.FramePool with header and payload written in place) into the NIC
// send queue. Ownership of the frame passes to the NIC here: the receiving
// endpoint releases it back to its pool after the last byte is consumed.
func (n *NIC) HostSendPacket(p *sim.Proc, pkt *netsim.Packet, dst int, ctrl bool) {
	if n.cfg.ChargeBus {
		n.H.BusTransfer(p, len(pkt.Payload))
	}
	pkt.Dst = dst
	pkt.Ctrl = ctrl
	n.sendq.Send(p, pkt)
}

// Poll removes the next packet from the receive ring without blocking,
// freeing its slot. ok is false when the ring is empty.
func (n *NIC) Poll() (pkt *netsim.Packet, ok bool) { return n.ring.TryRecv() }

// PollCtrl removes the next control packet without blocking.
func (n *NIC) PollCtrl() (pkt *netsim.Packet, ok bool) { return n.ctrlq.TryRecv() }

// WaitCtrl blocks the calling Proc until a control packet arrives. Senders
// stalled on flow-control credits park here.
func (n *NIC) WaitCtrl(p *sim.Proc) *netsim.Packet { return n.ctrlq.Recv(p) }

// Pending reports whether Poll or PollCtrl would return a packet.
func (n *NIC) Pending() bool { return n.ring.Ready() || n.ctrlq.Ready() }

// RingLen reports packets waiting in the receive ring.
func (n *NIC) RingLen() int { return n.ring.Len() }

// RingSlots reports the ring capacity.
func (n *NIC) RingSlots() int { return n.ring.Cap() }

// Stats returns a copy of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }
