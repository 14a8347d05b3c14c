// Package bufpool is the tree's recycling: one bounded LIFO free list,
// Recycler, with one Stats, behind every recycled thing — records (stream
// records, request handles, accounting wrappers, Chan handoff slots), byte
// buffers through Pool (FM 1.x assembly buffers, FM 2.x loopback staging,
// the xport staging adapter's send buffers, socket segment buffers, protocol
// header scratch) and netsim's frame pools. Like the rest of the simulator
// it runs single-threaded under the kernel, so there is no locking; unlike
// sync.Pool it is deterministic, bounded, and observable (high-water mark,
// allocation counters), which the perf suite and the alloc-regression gates
// rely on. It imports nothing, so every package, sim included, may use it.
// FIFOs are sim.Queue.
//
// Every release is poisoned, in every run: Recycler.Put overwrites the
// memory it is handed with PoisonByte, whether that is a byte buffer, a
// frame or a record's own scratch (xport's header). An alias kept past the
// release reads garbage instead of stale, plausible data. There is no
// switch, no code outside this package writes PoisonByte itself, and no code
// outside sim's Queue pops a FIFO by reslicing or copying down.
// TestDesignRules holds all three.
package bufpool

// Stats reports a pool's recycling behavior.
type Stats struct {
	// Gets counts items handed out; Allocs the subset allocated fresh
	// (free list empty, or a free buffer too small). In steady state
	// Allocs stops growing.
	Gets, Allocs int64
	// Releases counts items returned; Dropped the subset discarded because
	// the free list was at capacity.
	Releases, Dropped int64
	// Free is the current free-list depth; HWM the deepest it has been.
	Free, HWM int
}

// DefaultCap bounds a free list given no explicit cap.
const DefaultCap = 64

// PoisonByte is the pattern every release is overwritten with, so any alias
// illegally retained past the release reads garbage instead of stale
// (plausible) data.
const PoisonByte = 0xDB

// poisonBlock is PoisonByte repeated: poison fills a buffer with one copy
// per block.
var poisonBlock = func() (b [4096]byte) {
	for i := range b {
		b[i] = PoisonByte
	}
	return b
}()

// poison overwrites every byte of b with PoisonByte.
func poison(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, poisonBlock[:]):]
	}
}

// Recycler is the bounded LIFO free list: the list, its bound, the Stats
// bookkeeping and the poisoning of every release. The zero value retains up
// to DefaultCap items.
type Recycler[T any] struct {
	max   int
	free  []T
	stats Stats
}

// NewRecycler creates a free list retaining at most max items (<=0 means
// DefaultCap).
func NewRecycler[T any](max int) Recycler[T] {
	return Recycler[T]{max: max}
}

// Get pops the most recently released item and counts a Get. When the list
// is empty ok is false and an Alloc is counted: the caller allocates.
func (r *Recycler[T]) Get() (x T, ok bool) {
	r.stats.Gets++
	last := len(r.free) - 1
	if last < 0 {
		r.stats.Allocs++
		return x, false
	}
	x = r.free[last]
	var zero T
	r.free[last] = zero
	r.free = r.free[:last]
	return x, true
}

// Put poisons mem, the memory x owns, and pushes x. Items beyond the bound
// are dropped for the GC, so bursts cannot pin unbounded memory.
func (r *Recycler[T]) Put(x T, mem []byte) {
	r.stats.Releases++
	poison(mem)
	max := r.max
	if max <= 0 {
		max = DefaultCap
	}
	if len(r.free) >= max {
		r.stats.Dropped++
		return
	}
	r.free = append(r.free, x)
	if d := len(r.free); d > r.stats.HWM {
		r.stats.HWM = d
	}
}

// Stats returns a copy of the counters.
func (r *Recycler[T]) Stats() Stats {
	s := r.stats
	s.Free = len(r.free)
	return s
}

// Pool is a bounded LIFO free list of byte buffers.
type Pool struct {
	r Recycler[[]byte]
}

// New creates a pool retaining at most max buffers (0 means DefaultCap).
func New(max int) *Pool {
	return &Pool{r: NewRecycler[[]byte](max)}
}

// Stats returns a copy of the pool counters.
func (p *Pool) Stats() Stats { return p.r.Stats() }

// Get returns a length-n buffer, reusing the most recently returned free
// buffer whose capacity suffices. Contents are unspecified: callers
// overwrite, and a reused buffer reads PoisonByte, never stale data.
func (p *Pool) Get(n int) []byte {
	b, ok := p.r.Get()
	if ok && cap(b) >= n {
		return b[:n]
	}
	if ok {
		// Too small for this request: let it go and allocate to fit. The
		// LIFO discipline converges on the workload's steady-state sizes.
		p.r.stats.Allocs++
	}
	return make([]byte, n)
}

// GetEmpty returns a zero-length buffer with at least n bytes of capacity —
// the shape append-style staging wants.
func (p *Pool) GetEmpty(n int) []byte { return p.Get(n)[:0] }

// Put poisons a buffer to its capacity and returns it to the free list.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	p.r.Put(b, b)
}
