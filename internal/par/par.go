// Package par is the one place simulations run in parallel: a minimal
// OS-thread worker pool for running many *independent* sequential
// simulations concurrently (the scenarios of a campaign:
// scenario.RunCampaignN and the benchmark's chaos-campaign). Each replica
// builds its own kernel and runs to completion, so results are
// bit-identical to a one-at-a-time loop by construction — the pool only
// changes wall-clock time, never virtual time. One simulation never spans
// threads: it runs on one sim.Kernel (see the sim package doc).
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count request: n >= 1 is taken as given,
// anything else (0, negative) means "one per CPU".
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for i in [0, n) on `workers` goroutines (resolved via
// Workers). Indices are handed out in order; completion order is not
// defined, so fn must write only to its own index's slot. A panic in any
// fn propagates to the caller after the pool drains.
func ForEach(n, workers int, fn func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup

		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
