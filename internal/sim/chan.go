package sim

// Chan is a bounded FIFO channel in virtual time. A capacity of zero gives
// rendezvous semantics. Bounded channels are the kernel's primitive for
// back-pressure: a full channel parks the sender, which is exactly how
// Myrinet's link-level flow control stalls an upstream stage.
//
// The buffer is a ring and the wait queues recycle their backing arrays, so
// steady-state Send/Recv traffic performs no allocation — channels sit on
// every packet's path (NIC queues, link slots, switch ports) and per-op
// garbage here is charged to every single simulated event.
type Chan[T any] struct {
	k    *Kernel
	cap  int
	ring []T // circular buffer; grown on demand, never past cap
	head int // index of the oldest buffered item
	n    int // buffered item count

	sendq waitq[chanSend[T]]
	recvq waitq[chanRecv[T]]

	// slotPool recycles the handoff slots parked receivers read from: a
	// stack-local slot would escape to the heap, costing one allocation per
	// blocking Recv — once per packet on every NIC queue.
	slotPool []*T
}

type chanSend[T any] struct {
	p *Proc
	v T
}

type chanRecv[T any] struct {
	p    *Proc
	slot *T
}

// waitq is a FIFO of parked endpoints. Pops advance a head index instead of
// reslicing, and the backing array is rewound whenever the queue empties —
// or compacted once the dead prefix dominates, so even a queue that NEVER
// drains (a saturated link under permanent back-pressure) keeps its backing
// proportional to live waiters, not to total traffic.
type waitq[T any] struct {
	q    []T
	head int
}

// compactAt is the dead-prefix size beyond which half-dead queue backings
// are compacted in place (amortized O(1) per pop).
const compactAt = 32

func (w *waitq[T]) len() int { return len(w.q) - w.head }

func (w *waitq[T]) push(v T) { w.q = append(w.q, v) }

func (w *waitq[T]) peek() T { return w.q[w.head] }

func (w *waitq[T]) pop() T {
	v := w.q[w.head]
	var zero T
	w.q[w.head] = zero // drop references for the GC
	w.head++
	switch {
	case w.head == len(w.q):
		w.q = w.q[:0]
		w.head = 0
	case w.head >= compactAt && w.head*2 >= len(w.q):
		n := copy(w.q, w.q[w.head:])
		for i := n; i < len(w.q); i++ {
			w.q[i] = zero
		}
		w.q = w.q[:n]
		w.head = 0
	}
	return v
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, cap: capacity}
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return c.n }

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Ready reports whether TryRecv would succeed.
func (c *Chan[T]) Ready() bool { return c.n > 0 || c.sendq.len() > 0 }

// Senders reports the number of parked senders (back-pressure depth).
func (c *Chan[T]) Senders() int { return c.sendq.len() }

// bufPush appends v to the ring, growing the backing array (up to cap) the
// first time depth demands it. Deep rings (large receive windows) therefore
// cost memory proportional to their observed occupancy, not their bound.
func (c *Chan[T]) bufPush(v T) {
	if c.n == len(c.ring) {
		grown := len(c.ring) * 2
		if grown == 0 {
			grown = 4
		}
		if grown > c.cap {
			grown = c.cap
		}
		next := make([]T, grown)
		for i := 0; i < c.n; i++ {
			next[i] = c.ring[(c.head+i)%len(c.ring)]
		}
		c.ring = next
		c.head = 0
	}
	c.ring[(c.head+c.n)%len(c.ring)] = v
	c.n++
}

// bufPop removes and returns the oldest buffered item.
func (c *Chan[T]) bufPop() T {
	v := c.ring[c.head]
	var zero T
	c.ring[c.head] = zero
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	return v
}

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
	c.sendq.push(chanSend[T]{p, v})
	p.waitsOn(c)
	return false
}

// TrySend delivers v without blocking; it reports success.
func (c *Chan[T]) TrySend(v T) bool {
	// Direct handoff to a waiting receiver (buffer must be empty then).
	if c.recvq.len() > 0 {
		r := c.recvq.pop()
		*r.slot = v
		c.k.wakeNow(r.p)
		return true
	}
	if c.n < c.cap {
		c.bufPush(v)
		return true
	}
	return false
}

// getSlot draws a recycled handoff slot.
func (c *Chan[T]) getSlot() *T {
	if n := len(c.slotPool); n > 0 {
		s := c.slotPool[n-1]
		c.slotPool[n-1] = nil
		c.slotPool = c.slotPool[:n-1]
		return s
	}
	return new(T)
}

// putSlot returns a handoff slot after its value has been read out.
func (c *Chan[T]) putSlot(s *T) {
	var zero T
	*s = zero
	c.slotPool = append(c.slotPool, s)
}

// Recv takes the next item, parking p while the channel is empty.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, ok := c.TryRecv(); ok {
		return v // a channel that never runs dry never draws a slot
	}
	slot := c.getSlot()
	if !c.StartRecv(p, slot) {
		p.park() // woken by a Send that filled slot
	}
	v := *slot
	c.putSlot(slot)
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
	c.recvq.push(chanRecv[T]{p, slot})
	p.waitsOn(c)
	return false
}

// Describe names a wait on c for the hang report: a send while senders are
// parked (a channel never holds parked senders and receivers at once), else
// a receive.
func (c *Chan[T]) Describe() (string, int, []int) {
	if c.sendq.len() > 0 {
		return "chan send (full)", -1, nil
	}
	return "chan recv (empty)", -1, nil
}

// TryRecv takes the next item without blocking; ok reports success.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.n > 0 {
		v = c.bufPop()
		c.admitSender()
		return v, true
	}
	if c.sendq.len() > 0 { // unbuffered rendezvous
		s := c.sendq.pop()
		c.k.wakeNow(s.p)
		return s.v, true
	}
	return v, false
}

// admitSender moves the longest-parked sender's value into freed buffer
// space, preserving FIFO order, and wakes it.
func (c *Chan[T]) admitSender() {
	if c.sendq.len() == 0 || c.n >= c.cap {
		return
	}
	s := c.sendq.pop()
	c.bufPush(s.v)
	c.k.wakeNow(s.p)
}
