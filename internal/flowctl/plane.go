package flowctl

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hostmodel"
	"repro/internal/lanai"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Plane is the credit/control plane of one FM endpoint, the flow-control
// service both generations keep unchanged (paper §3.1, §4): the credit
// ledger, the control-header pool, the wait for refills while a send is
// gated, control-frame validation, half-window credit return and the idle
// flush. The generations differ only in their header layout (Wire), which
// reaches NewPlane through NewEndpointCore; an EndpointCore holds its Plane
// by value.
type Plane struct {
	fc       *Manager
	nic      *lanai.NIC
	pool     *netsim.FramePool // control headers
	node     int
	hdrSize  int  // control-frame length
	countOff int  // offset of the 32-bit credit count
	disabled bool // the host's Stage runs no flow control

	// malformed counts control frames discarded instead of trusted.
	malformed int64

	// Multi-client credit wait: with several services sharing one endpoint,
	// several Procs may block on credits for different destinations at once.
	// Exactly one parks on the NIC control queue; the rest park on creditSig
	// and re-check their window after every refill, so a refill consumed by
	// the wrong waiter can never strand the right one.
	ctrlWaiter bool
	creditSig  sim.Signal
}

// NewPlane builds the control plane of the endpoint attached to nic in a
// cluster of nodes nodes. Control frames are hdrSize bytes with the credit
// count at countOff; the control-header free list holds at most
// netsim.DefaultPoolCap of them. From hostmodel.StageBus on, Acquire,
// Return and Flush are no-ops.
func NewPlane(nic *lanai.NIC, nodes, hdrSize, countOff int) Plane {
	h := nic.H
	return Plane{
		fc:       New(nodes, h.ID, h.P.CreditWindow, h.P.RingSlots),
		nic:      nic,
		pool:     netsim.NewFramePool(hdrSize, netsim.DefaultPoolCap),
		node:     h.ID,
		hdrSize:  hdrSize,
		countOff: countOff,
		disabled: h.P.Stage >= hostmodel.StageBus,
	}
}

// Manager exposes the credit ledger.
func (c *Plane) Manager() *Manager { return c.fc }

// Pool exposes the control-header pool and its recycling counters.
func (c *Plane) Pool() *netsim.FramePool { return c.pool }

// Malformed reports how many control frames were discarded as invalid.
func (c *Plane) Malformed() int64 { return c.malformed }

// Acquire takes one packet credit toward dst, servicing control traffic
// (and only control traffic — FM sends never process incoming data) while
// blocked.
func (c *Plane) Acquire(p *sim.Proc, dst int) {
	if c.disabled {
		return
	}
	c.DrainCtrl()
	for !c.fc.Consume(dst) {
		p.WaitOn(c)
		if c.ctrlWaiter {
			// Another Proc already owns the control queue: wait for it to
			// process a refill, then re-check our own window.
			c.creditSig.Wait(p)
			continue
		}
		c.ctrlWaiter = true
		pkt := c.nic.WaitCtrl(p)
		p.WaitOn(nil) // a refill already queued is taken without a park
		c.ctrlWaiter = false
		c.handleCtrl(pkt)
		c.DrainCtrl()
		c.creditSig.Broadcast()
	}
}

// Describe names a credit wait for the hang report: the peers whose window
// this node has spent, and the frames in its own ring that a sender gated on
// credit leaves unextracted (FM sends never process incoming data).
func (c *Plane) Describe() (string, int, []int) {
	var shut []int
	for dst := 0; dst < c.fc.Nodes(); dst++ {
		if dst != c.node && c.fc.Available(dst) == 0 {
			shut = append(shut, dst)
		}
	}
	return fmt.Sprintf("credit (window of %d spent, %d frames unextracted here)", c.fc.Window(), c.nic.RingLen()), c.node, shut
}

// DrainCtrl consumes every control packet already queued at the NIC.
func (c *Plane) DrainCtrl() {
	for {
		pkt, ok := c.nic.PollCtrl()
		if !ok {
			return
		}
		c.handleCtrl(pkt)
	}
}

// handleCtrl consumes one credit packet and releases its frame back to the
// sending endpoint's header pool. Malformed control frames are counted and
// discarded: trusting a bad source or count here would corrupt the credit
// ledger far from the cause, and a forged source must not Refill an
// innocent sender. A count above what is in flight toward src is forged too:
// Refill would take it past the window, which Refill treats as a broken
// invariant, not as input.
func (c *Plane) handleCtrl(pkt *netsim.Packet) {
	defer pkt.Release()
	frame := pkt.Payload
	if len(frame) < c.hdrSize || frame[0] != typeCredit {
		c.malformed++
		return
	}
	src := int(binary.LittleEndian.Uint16(frame[2:]))
	n := int(binary.LittleEndian.Uint32(frame[c.countOff:]))
	if src == c.node || src >= c.fc.Nodes() || n <= 0 || n > c.fc.Outstanding(src) {
		c.malformed++
		return
	}
	c.fc.Refill(src, n)
}

// Return notes that one ring slot holding a packet from src was freed and
// sends a credit packet back once a half-window of them has accumulated.
func (c *Plane) Return(p *sim.Proc, src int) {
	if c.disabled {
		return
	}
	if n, due := c.fc.NoteFreed(src); due {
		c.sendCreditPacket(p, src, n)
	}
}

// Cond is the wait condition of a caller blocked on the network — a posted
// receive, an outstanding put, a connection handshake. Done must be O(1) and
// only read state of the caller's own node: IdlePoll evaluates it from the
// kernel's dispatcher (see sim.Idler). The own-node read bears on results,
// not only on speed: a false Done is taken to stand until an event of the
// caller's node runs (Waiter.Stands), and the dispatcher does not ask again
// before one has.
type Cond interface {
	Done() bool
}

// Waiter carries a blocked caller's condition down to IdlePoll. Several
// Procs can idle on one endpoint at once (co-resident services), so it
// belongs to the caller, kept wherever the caller is single-threaded —
// xport.HandlerSpace holds one per service — and nothing is allocated per
// wait. Until must be set.
type Waiter struct {
	Until Cond
	// Gap is the pause a self-paced caller takes after every extract before
	// it looks at its condition and polls again; 0 for a caller that polls
	// back to back. With a Gap, an idle stretch alternates two ticks — the
	// empty poll ends, the pause ends — and the caller must know which one
	// ended the stretch to resume where its loop would be.
	Gap sim.Time
	// Paused is set by EndpointCore.Next when the stretch ended on a pause
	// tick: the extract is returning empty-handed with the caller's pause
	// already charged, so the caller skips its own Delay(Gap) and whatever it
	// does between an extract and the pause, goes straight to its loop
	// condition, and clears the flag. Unset, the stretch ended as a plain
	// Extract does, on the empty poll.
	Paused bool
	// Stands is how long a false Until.Done() stands: 0, until an event of
	// the caller's node runs — Cond's contract; a virtual time t, that or
	// until the clock reaches t, for a condition that also reads the clock;
	// sim.OneTick for one that reads other nodes' state. The ring and the
	// credit ledger Idle reads besides are the node's own.
	Stands sim.Time
	plane  *Plane
}

// Idle reports that the caller, resumed at this instant, would do nothing but
// charge the next tick: no data or control packet to take, no withheld credit
// batch to flush — a co-resident service's extractor may have left one since
// the last poll — and the caller still waiting, which another service's
// extractor can also end; and for how long that holds (Stands). The same
// test serves both ticks of a paced wait, where it asks more than the caller
// would at the end of a poll (it pauses without looking), and it counts a
// dirty entry TakeDirty would skip: it is deliberately conservative, a
// needless wake only costs host time.
func (w *Waiter) Idle() sim.Time {
	c := w.plane
	switch {
	case w.Until.Done() || c.nic.Pending() || c.fc.Dirty():
		return sim.Busy
	case w.Stands == 0:
		return sim.Quiet
	}
	return w.Stands
}

// Describe names a polling wait for the hang report.
func (w *Waiter) Describe() (string, int, []int) { return "poll", w.plane.node, nil }

// IdlePoll is what an Extract that found the receive ring empty does, less
// the poll itself: it flushes withheld credit and reports how
// EndpointCore.Next is to charge the empty poll — p.PollCycle(poll, pause,
// idle). On behalf of a caller blocked on w.Until that goes on charging empty
// polls, one kernel event each and w.Gap apart if the caller paces itself,
// until a poll would find work or the caller's condition holds: the `for
// !done { Extract }` loop of a blocked upper layer, or the `for !done {
// Extract; Delay(gap) }` loop of a service with other work, minus the trip up
// and down the stack per tick. A nil w is a caller running its own loop,
// which must see every tick: idle is nil, exactly one empty poll. (Next makes
// the PollCycle call itself so that a Proc resuming from an empty poll — the
// hottest path of every such caller — unwinds one frame less.)
func (c *Plane) IdlePoll(p *sim.Proc, w *Waiter) (poll, pause sim.Time, idle sim.Idler) {
	c.Flush(p)
	poll = c.nic.H.P.PollEmpty
	if w == nil {
		return poll, poll, nil
	}
	w.plane = c
	if w.Gap > 0 {
		return poll, w.Gap, w
	}
	return poll, poll, w
}

// Flush force-returns pending partial credit batches. Called on idle
// polls: batching at half-window granularity amortizes credit traffic
// under load, but a sender gated on a multi-packet message can be starved
// forever by slots the threshold is still withholding once the receiver
// goes quiet. At idle there is no return traffic to amortize, so the flush
// costs at most one control packet per pending peer per quiesce, and
// TakeDirty keeps the nothing-pending poll O(1) at any cluster size.
func (c *Plane) Flush(p *sim.Proc) {
	if c.disabled {
		return
	}
	for {
		src, n, ok := c.fc.TakeDirty()
		if !ok {
			return
		}
		c.sendCreditPacket(p, src, n)
	}
}

func (c *Plane) sendCreditPacket(p *sim.Proc, dst, n int) {
	pkt := c.pool.Get(c.hdrSize)
	frame := pkt.Payload
	for i := range frame {
		frame[i] = 0
	}
	frame[0] = typeCredit
	binary.LittleEndian.PutUint16(frame[2:], uint16(c.node))
	binary.LittleEndian.PutUint32(frame[c.countOff:], uint32(n))
	c.nic.HostSendPacket(p, pkt, dst, true)
}
