// Package alloctest is the one measurement behind the steady-state
// zero-allocation pins of sim, fm1 and fm2.
package alloctest

import "runtime"

// Windows is how many times MinMallocs runs its function.
const Windows = 5

// AllowStray is the most mallocs a pinned window may report: headroom for
// what the runtime itself allocates on the measuring goroutine.
const AllowStray = 4

// MinMallocs runs fn Windows times and reports the smallest malloc count of
// any one run. runtime.MemStats.Mallocs is process-wide, so on a multi-core
// host a single window also counts whatever the runtime and other
// goroutines allocate on the other Ps meanwhile. Taking the minimum removes
// that noise without hiding a regression: an allocation fn makes per
// operation shows up at least once per operation in every window, while
// background noise is absent from at least one.
func MinMallocs(fn func()) uint64 {
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < Windows; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		if d := m1.Mallocs - m0.Mallocs; d < best {
			best = d
		}
	}
	return best
}
