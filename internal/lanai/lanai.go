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

// Stats counts NIC activity.
type Stats struct {
	Sent     int64
	Received int64
	CtrlRecv int64
	// RingDropped is always 0: a full receive ring stalls the NIC, never
	// drops. Scenario reports (ring_dropped), this package's pinned digest
	// and the repository benchmark read it.
	RingDropped int64
	CRCDropped  int64 // frames discarded by the link-level CRC check
}

// NIC is one node's network interface.
type NIC struct {
	H   *hostmodel.Host
	Ifc *netsim.Iface

	send  sendFirmware
	recv  recvFirmware
	sendq *sim.Chan[*netsim.Packet] // NIC SRAM send queue (host -> firmware)
	ring  *sim.Chan[*netsim.Packet] // pinned-host-memory receive ring (firmware -> host)
	ctrlq *sim.Chan[*netsim.Packet] // demuxed control packets (credits)

	stats Stats
}

// New creates a NIC bound to a host and a fabric interface. Call Start to
// launch the firmware.
func New(h *hostmodel.Host, ifc *netsim.Iface) *NIC {
	p := h.P
	n := &NIC{
		H:     h,
		Ifc:   ifc,
		sendq: sim.NewChan[*netsim.Packet](h.K, p.SendQSlots),
		ring:  sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
		ctrlq: sim.NewChan[*netsim.Packet](h.K, p.RingSlots),
	}
	n.send.n, n.recv.n = n, n
	return n
}

// Start spawns the send and receive firmware, both acting for the NIC's
// node: the receive loop fills the host ring its pollers read.
func (n *NIC) Start() {
	k := n.H.K
	k.SpawnMachine(fmt.Sprintf("nic%d.send", n.H.ID), &n.send).ActsFor(n.H.ID)
	k.SpawnMachine(fmt.Sprintf("nic%d.recv", n.H.ID), &n.recv).ActsFor(n.H.ID)
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
			f.tx = n.Ifc.StartSend(f.pkt)
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
//		if pkt.Ctrl { ctrlq.Send(pkt); CtrlRecv++ } else { ring.Send(pkt); Received++ }
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
			case n.H.P.Stage == hostmodel.StageLink:
				f.next = recvDeliver
			default: // DMA into the ring: H.BusTransfer, in its steps
				f.dma = n.H.Bus.StartUse(n.H.BusHold(len(f.pkt.Payload)))
				f.next = recvDMA
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
			default:
				f.count = &n.stats.Received
				if !n.ring.StartSend(p, pkt) { // waits while full: wire back-pressure
					return
				}
			}
		case recvCount:
			*f.count++
			f.next = recvRecv
		}
	}
}

// HostSendPacket transfers an already-framed packet (typically drawn from a
// netsim.FramePool with header and payload written in place) into the NIC
// send queue, charging PIO time on the I/O bus and blocking while the queue
// is full. The caller must be the host application Proc. Ownership of the
// frame passes to the NIC here: the receiving endpoint releases it back to
// its pool after the last byte is consumed.
func (n *NIC) HostSendPacket(p *sim.Proc, pkt *netsim.Packet, dst int, ctrl bool) {
	if n.H.P.Stage != hostmodel.StageLink {
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
