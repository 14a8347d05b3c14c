package sim

import "repro/internal/bufpool"

// Chan is a bounded FIFO channel in virtual time. A capacity of zero gives
// rendezvous semantics. Bounded channels are the kernel's primitive for
// back-pressure: a full channel parks the sender, which is exactly how
// Myrinet's link-level flow control stalls an upstream stage.
//
// The buffer and both wait queues are Queues and the handoff slots come from
// a free list, so steady-state Send/Recv traffic performs no allocation —
// channels sit on every packet's path (NIC queues, link slots, switch ports)
// and per-op garbage here is charged to every single simulated event.
type Chan[T any] struct {
	k   *Kernel
	cap int
	buf Queue[T] // never holds more than cap

	sendq Queue[chanSend[T]]
	recvq Queue[chanRecv[T]]

	// slots recycles the handoff slots parked receivers read from: a
	// stack-local slot would escape to the heap, costing one allocation per
	// blocking Recv — once per packet on every NIC queue.
	slots bufpool.Recycler[*T]
}

type chanSend[T any] struct {
	p *Proc
	v T
}

type chanRecv[T any] struct {
	p    *Proc
	slot *T
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	c := new(Chan[T])
	c.Init(k, capacity)
	return c
}

// Init is NewChan in place: c is a zero Chan the caller laid out, so a
// builder that needs a Chan per port allocates them by the slice. c must
// stay put.
func (c *Chan[T]) Init(k *Kernel, capacity int) {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	*c = Chan[T]{k: k, cap: capacity}
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Ready reports whether TryRecv would succeed.
func (c *Chan[T]) Ready() bool { return c.buf.Len() > 0 || c.sendq.Len() > 0 }

// senders reports the number of parked senders (back-pressure depth).
func (c *Chan[T]) senders() int { return c.sendq.Len() }

// Send delivers v, parking p while the channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	if !c.StartSend(p, v) {
		p.park() // woken by a Recv that consumed our value
	}
}

// StartSend is Send without the park: it delivers v and reports true, or —
// the channel full — queues v behind the senders already waiting and reports
// false; p is woken once a Recv has taken v into the buffer or away.
func (c *Chan[T]) StartSend(p *Proc, v T) bool {
	if c.TrySend(v) {
		return true
	}
	*c.sendq.Push() = chanSend[T]{p, v}
	p.waitsOn(c)
	return false
}

// TrySend delivers v without blocking; it reports success.
func (c *Chan[T]) TrySend(v T) bool {
	// Direct handoff to a waiting receiver (buffer must be empty then).
	if c.recvq.Len() > 0 {
		r := c.recvq.Pop()
		*r.slot = v
		c.k.wakeNow(r.p)
		return true
	}
	if c.buf.Len() < c.cap {
		*c.buf.Push() = v
		return true
	}
	return false
}

// Recv takes the next item, parking p while the channel is empty.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, ok := c.TryRecv(); ok {
		return v // a channel that never runs dry never draws a slot
	}
	slot, ok := c.slots.Get()
	if !ok {
		slot = new(T)
	}
	if !c.StartRecv(p, slot) {
		p.park() // woken by a Send that filled slot
	}
	v := *slot
	var zero T
	*slot = zero
	c.slots.Put(slot, nil)
	return v
}

// StartRecv is Recv without the park: it stores the next item in *slot and
// reports true, or — the channel empty — registers p and reports false; the
// Send that wakes p fills *slot first. The slot is the caller's and must stay
// put until then (a Machine passes a field of itself).
func (c *Chan[T]) StartRecv(p *Proc, slot *T) bool {
	var ok bool
	if *slot, ok = c.TryRecv(); ok {
		return true
	}
	*c.recvq.Push() = chanRecv[T]{p, slot}
	p.waitsOn(c)
	return false
}

// Describe names a wait on c for the hang report: a send while senders are
// parked (a channel never holds parked senders and receivers at once), else
// a receive.
func (c *Chan[T]) Describe() (string, int, []int) {
	if c.sendq.Len() > 0 {
		return "chan send (full)", -1, nil
	}
	return "chan recv (empty)", -1, nil
}

// TryRecv takes the next item without blocking; ok reports success.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.Len() > 0 {
		v = c.buf.Pop()
		c.admitSender()
		return v, true
	}
	if c.sendq.Len() > 0 { // unbuffered rendezvous
		s := c.sendq.Pop()
		c.k.wakeNow(s.p)
		return s.v, true
	}
	return v, false
}

// admitSender moves the longest-parked sender's value into freed buffer
// space, preserving FIFO order, and wakes it.
func (c *Chan[T]) admitSender() {
	if c.sendq.Len() == 0 || c.buf.Len() >= c.cap {
		return
	}
	s := c.sendq.Pop()
	*c.buf.Push() = s.v
	c.k.wakeNow(s.p)
}
