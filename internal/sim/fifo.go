package sim

// Queue is the tree's one FIFO: a ring a power of two long, grown by
// doubling and never shrunk, so a queue that drains keeps its backing for the
// next burst and steady-state traffic allocates nothing. It serves the poll
// lanes, Chan buffers, the parked senders, receivers and waiters of Chans,
// Signals and Resources, and every layer's queue above them. The zero value
// is ready to use.
//
// Push hands back the new tail slot for the caller to fill in place: on the
// 1024-rank allreduce, copying a lane tick built on the stack into its slot
// cost 28 % of host time in that one store, against ~6 % for the whole
// re-arm in place. Pop zeroes the slot it vacates, so a ring holds no
// reference to anything it has given up (the hang report scans every lane
// slot for a parked Proc).
type Queue[T any] struct {
	ring []T
	head int // index of the oldest entry
	n    int // live entries
}

// Len reports the number of entries.
func (q *Queue[T]) Len() int { return q.n }

// Push appends an entry and returns its slot to be filled in place. The
// pointer is good until the next Push.
func (q *Queue[T]) Push() *T {
	if q.n == len(q.ring) {
		grown := make([]T, max(2*len(q.ring), 4))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	s := &q.ring[(q.head+q.n)&(len(q.ring)-1)]
	q.n++
	return s
}

// Front returns the oldest entry in place; the queue must not be empty.
func (q *Queue[T]) Front() *T { return &q.ring[q.head] }

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	s := &q.ring[q.head]
	v := *s
	var zero T
	*s = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}
