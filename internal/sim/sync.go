package sim

import "fmt"

// Signal is a condition-variable-like wait queue in virtual time.
// The zero value is ready to use.
//
// The wait queue is a Queue, so park/wake cycles on hot signals — credit
// waits, handler scheduling — allocate nothing in steady state.
type Signal struct {
	q Queue[*Proc]
}

// Wait parks p until another Proc calls Signal or Broadcast. As with
// sync.Cond, callers typically re-check their predicate in a loop.
func (s *Signal) Wait(p *Proc) {
	*s.q.Push() = p
	p.waitsOn(s)
	p.park()
}

// Describe names a wait on s for the hang report.
func (s *Signal) Describe() (string, int, []int) { return "signal", -1, nil }

// Signal wakes the longest-waiting Proc, if any.
func (s *Signal) Signal() {
	if s.q.Len() == 0 {
		return
	}
	w := s.q.Pop()
	w.k.wakeNow(w)
}

// Broadcast wakes every waiting Proc in FIFO order.
func (s *Signal) Broadcast() {
	for s.q.Len() > 0 {
		w := s.q.Pop()
		w.k.wakeNow(w)
	}
}

// Resource is a counted resource (CPU, bus, DMA engine, buffer slots) with
// strictly FIFO granting: a small request queued behind a large one does not
// jump the queue, matching the in-order service of the buses being modeled.
type Resource struct {
	name  string
	cap   int
	inUse int
	q     Queue[resWait]
	k     *Kernel
}

type resWait struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (units).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{name: name, cap: capacity, k: k}
}

// Acquire obtains n units, parking p until they are available.
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.StartAcquire(p, n) {
		p.park()
	}
}

// StartAcquire is Acquire without the park: it grants n units and reports
// true, or queues p behind the earlier requests and reports false; p holds
// the units when it is woken.
func (r *Resource) StartAcquire(p *Proc, n int) bool {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: resource %q: bad acquire %d of %d", r.name, n, r.cap))
	}
	if r.q.Len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return true
	}
	*r.q.Push() = resWait{p, n}
	p.waitsOn(r)
	return false
}

// Describe names a wait on r for the hang report.
func (r *Resource) Describe() (string, int, []int) {
	return fmt.Sprintf("resource %q (%d of %d in use)", r.name, r.inUse, r.cap), -1, nil
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("sim: resource %q: over-release", r.name))
	}
	for r.q.Len() > 0 && r.inUse+r.q.Front().n <= r.cap {
		w := r.q.Pop()
		r.inUse += w.n
		r.k.wakeNow(w.p)
	}
}

// Use acquires one unit, holds it for d, and releases it: the standard way
// to model FIFO service time at a device.
func (r *Resource) Use(p *Proc, d Time) {
	for u := r.StartUse(d); !u.Step(p); {
		p.park()
	}
}

// Hold is Use as a resumable step sequence — acquire one unit, hold it for
// d, release — for a caller that cannot block (a Machine embeds one and
// returns between steps; Use parks between them).
type Hold struct {
	r    *Resource
	d    Time
	next uint8
}

// StartUse begins a Use of r for d; nothing happens until the first Step.
func (r *Resource) StartUse(d Time) Hold { return Hold{r: r, d: d} }

// Step advances the hold as far as it can without waiting. It reports true
// once the unit is released; on false it has armed p's one wake (the grant,
// or the end of the hold) and is to be called again when p is woken.
func (h *Hold) Step(p *Proc) bool {
	switch h.next {
	case 0:
		h.next = 1
		if !h.r.StartAcquire(p, 1) {
			return false
		}
		fallthrough
	case 1:
		h.next = 2
		p.StartDelay(h.d)
		return false
	}
	h.r.Release(1)
	return true
}
