// Package bufpool is the tree's recycling: bounded LIFO free lists of
// record pointers (FreeList: stream records, request handles, accounting
// wrappers, Chan handoff slots) and of byte buffers (Pool: FM 1.x assembly
// buffers, FM 2.x loopback staging, the xport staging adapter's send buffers,
// socket segment buffers, protocol header scratch), and the one Stats type
// and PoisonByte that netsim's frame pools share. Like the rest of the
// simulator it runs single-threaded under the kernel, so there is no locking;
// unlike sync.Pool it is deterministic, bounded, and observable (high-water
// mark, allocation counters), which the perf suite and the alloc-regression
// gates rely on. It imports nothing, so every package, sim included, may use
// it. FIFOs are sim.Queue.
//
// A byte pool's poison mode is fixed when it is built (New): a layer passes
// its engine's mode (PoisonFrames, Poisoned) at construction and never sets
// it afterwards, and no code outside sim's Queue pops a FIFO by reslicing or
// copying down. TestDesignRules holds both.
package bufpool

// Stats reports a pool's recycling behavior.
type Stats struct {
	// Gets counts buffers handed out; Allocs the subset allocated fresh
	// (free list empty or every free buffer too small). In steady state
	// Allocs stops growing.
	Gets, Allocs int64
	// Releases counts buffers returned; Dropped the subset discarded because
	// the free list was at capacity.
	Releases, Dropped int64
	// Free is the current free-list depth; HWM the deepest it has been.
	Free, HWM int
}

// DefaultCap bounds the free list when New is given no explicit cap.
const DefaultCap = 64

// PoisonByte is the pattern poisoned pools — byte pools and netsim's frame
// pools — write over returned buffers, so any alias illegally retained past
// the return reads garbage instead of stale (plausible) data.
const PoisonByte = 0xDB

// Pool is a bounded LIFO free list of byte buffers.
type Pool struct {
	max    int
	poison bool
	free   [][]byte
	stats  Stats
}

// New creates a pool retaining at most max buffers (0 means DefaultCap);
// poison overwrites every returned buffer with PoisonByte.
func New(max int, poison bool) *Pool {
	if max <= 0 {
		max = DefaultCap
	}
	return &Pool{max: max, poison: poison}
}

// FreeList is a bounded LIFO free list of record pointers: the one shape
// behind every recycled hot-path record in the tree (send/receive stream
// records, request handles, accounting wrappers). Like Pool it is
// single-threaded under the kernel and deterministic. The zero value
// retains up to DefaultCap records.
type FreeList[T any] struct {
	max  int
	free []*T
}

// NewFreeList creates a free list retaining at most max records (<=0 means
// DefaultCap).
func NewFreeList[T any](max int) FreeList[T] {
	return FreeList[T]{max: max}
}

// Get pops the most recently returned record, or returns nil when the list
// is empty (the caller then constructs a fresh one). Callers reset reused
// records' fields themselves — the list knows nothing about T.
func (f *FreeList[T]) Get() *T {
	n := len(f.free) - 1
	if n < 0 {
		return nil
	}
	x := f.free[n]
	f.free[n] = nil
	f.free = f.free[:n]
	return x
}

// Put returns a record; records beyond the bound are dropped for the GC.
func (f *FreeList[T]) Put(x *T) {
	max := f.max
	if max <= 0 {
		max = DefaultCap
	}
	if len(f.free) >= max {
		return
	}
	f.free = append(f.free, x)
}

// Len reports the current free-list depth.
func (f *FreeList[T]) Len() int { return len(f.free) }

// Stats returns a copy of the pool counters.
func (p *Pool) Stats() Stats {
	s := p.stats
	s.Free = len(p.free)
	return s
}

// Get returns a length-n buffer, reusing the most recently returned free
// buffer whose capacity suffices. Contents are unspecified (callers
// overwrite; poisoned pools guarantee stale data is never plausible).
func (p *Pool) Get(n int) []byte {
	p.stats.Gets++
	if last := len(p.free) - 1; last >= 0 {
		b := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request: let it go and allocate to fit. The
		// LIFO discipline converges on the workload's steady-state sizes.
	}
	p.stats.Allocs++
	return make([]byte, n)
}

// GetEmpty returns a zero-length buffer with at least n bytes of capacity —
// the shape append-style staging wants.
func (p *Pool) GetEmpty(n int) []byte { return p.Get(n)[:0] }

// Put returns a buffer to the free list. Buffers beyond the cap are dropped
// for the GC, so bursts cannot pin unbounded memory.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.stats.Releases++
	if p.poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if len(p.free) >= p.max {
		p.stats.Dropped++
		return
	}
	p.free = append(p.free, b)
	if d := len(p.free); d > p.stats.HWM {
		p.stats.HWM = d
	}
}
