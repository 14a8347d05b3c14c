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
	// wire, and counts it in NICStats.RingDropped. No figure or ablation
	// runs it (the flow-control ablation is fm1's DisableFlowControl under
	// RingStall); lanai's own tests and its pinned schedule digests do.
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

	send  sendFirmware
	recv  recvFirmware
	sendq *sim.Chan[*netsim.Packet] // NIC SRAM send queue (host -> firmware)
	ring  *sim.Chan[*netsim.Packet] // pinned-host-memory receive ring (firmware -> host)
	ctrlq *sim.Chan[*netsim.Packet] // demuxed control packets (credits)

	stats Stats
}

// New creates a NIC bound to a host and a fabric interface. Call Start to
// launch the firmware.
func New(h *hostmodel.Host, ifc *netsim.Iface, cfg Config) *NIC {
	if cfg.OnRingFull != RingStall && cfg.OnRingFull != RingDrop {
		panic(fmt.Sprintf("lanai: unknown ring policy %d", cfg.OnRingFull))
	}
	p := h.P
	n := &NIC{
		H:     h,
		Ifc:   ifc,
		cfg:   cfg,
		sendq: sim.NewChan[*netsim.Packet](h.K, p.SendQSlots),
		ring:  sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
		ctrlq: sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
	}
	n.send.n, n.recv.n = n, n
	return n
}

// Start spawns the send and receive firmware.
func (n *NIC) Start() {
	k := n.H.K
	k.SpawnMachine(fmt.Sprintf("nic%d.send", n.H.ID), &n.send)
	k.SpawnMachine(fmt.Sprintf("nic%d.recv", n.H.ID), &n.recv)
}

// The firmware loops are sim Machines: the LANai runs each to its next wait
// and returns, so a packet costs the simulation no coroutine switch here. A
// loop reads top to bottom as the blocking code it stands for; `next` is
// where it resumes.

// sendFirmware drains the SRAM send queue onto the wire:
//
//	for { pkt := sendq.Recv(); Delay(NICSendPacket); Ifc.Send(pkt); Sent++ }
type sendFirmware struct {
	n    *NIC
	pkt  *netsim.Packet // the slot sendq.StartRecv fills
	tx   netsim.Tx
	next uint8
}

const (
	sendRecv = iota
	sendLaunch
	sendInject
	sendWire
)

func (f *sendFirmware) Step(p *sim.Proc) {
	n := f.n
	for {
		switch f.next {
		case sendRecv:
			f.next = sendLaunch
			if !n.sendq.StartRecv(p, &f.pkt) {
				return
			}
		case sendLaunch:
			f.next = sendInject
			p.StartDelay(n.H.P.NICSendPacket)
			return
		case sendInject:
			f.tx = n.Ifc.StartSend(p.Now(), f.pkt)
			f.next = sendWire
		case sendWire:
			if !f.tx.Step(p) { // serialization + fabric back-pressure
				return
			}
			n.stats.Sent++
			f.next = sendRecv
		}
	}
}

// recvFirmware lands packets from the wire into host memory by DMA:
//
//	for {
//		pkt := Ifc.In.Recv(); Delay(NICRecvPacket)
//		if pkt.Corrupt { drop; continue }
//		H.BusTransfer(len(pkt.Payload))
//		if pkt.Ctrl { ctrlq.Send(pkt); CtrlRecv++ } else { ring.Send(pkt) or drop; Received++ }
//	}
type recvFirmware struct {
	n     *NIC
	pkt   *netsim.Packet // the slot Ifc.In.StartRecv fills
	dma   sim.Hold       // the bus hold of the DMA under way
	count *int64         // the counter the delivery under way bumps
	next  uint8
}

const (
	recvRecv = iota
	recvLand
	recvCheck
	recvDMA
	recvDeliver
	recvCount
)

func (f *recvFirmware) Step(p *sim.Proc) {
	n := f.n
	for {
		switch f.next {
		case recvRecv:
			f.next = recvLand
			if !n.Ifc.In.StartRecv(p, &f.pkt) {
				return
			}
		case recvLand:
			f.next = recvCheck
			p.StartDelay(n.H.P.NICRecvPacket)
			return
		case recvCheck:
			switch {
			case f.pkt.Corrupt:
				// Link-level CRC check (paper §3.1): Myrinet computes a CRC per
				// link, so a frame corrupted in flight is discarded here, before
				// any DMA — FM never sees it, and its reliability argument holds
				// without per-message checksums. A lost DATA frame still leaks the
				// flow-control credit its sender spent; the fabric's loss registry
				// records that for a scenario report's loss accounting.
				n.stats.CRCDropped++
				n.Ifc.NoteLost(f.pkt, netsim.LossCRC)
				f.pkt.Release()
				f.next = recvRecv
			case n.cfg.ChargeBus: // DMA into the ring: H.BusTransfer, in its steps
				f.dma = n.H.Bus.StartUse(n.H.BusHold(len(f.pkt.Payload)))
				f.next = recvDMA
			default:
				f.next = recvDeliver
			}
		case recvDMA:
			if !f.dma.Step(p) {
				return
			}
			f.next = recvDeliver
		case recvDeliver:
			f.next = recvCount
			switch pkt := f.pkt; {
			case pkt.Ctrl:
				// Control packets go to a dedicated queue so credit updates are
				// never stuck behind undrained data (the firmware demux FM
				// relies on for deadlock-freedom).
				f.count = &n.stats.CtrlRecv
				if !n.ctrlq.StartSend(p, pkt) {
					return
				}
			case n.cfg.OnRingFull == RingStall:
				f.count = &n.stats.Received
				if !n.ring.StartSend(p, pkt) { // waits while full: wire back-pressure
					return
				}
			case n.ring.TrySend(pkt): // RingDrop (New admits no third policy), and there was room
				f.count = &n.stats.Received
			default:
				n.stats.RingDropped++
				n.Ifc.NoteLost(pkt, netsim.LossRingFull)
				pkt.Release() // dropped frame goes straight back to its pool
				f.next = recvRecv
			}
		case recvCount:
			*f.count++
			f.next = recvRecv
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
