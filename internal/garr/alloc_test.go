package garr

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestPutGetZeroAlloc pins the global-array path to zero mallocs over both
// bindings: after warm-up, a window of Puts, Gets and Accs of the remote
// block — span splitting, marshalling, Acc's staging, the shmem traffic under
// them and the owner's handlers — allocates nothing.
func TestPutGetZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, ops, elems = 100, 200, 128
	for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		t.Run(g.String(), func(t *testing.T) {
			k, as := genArrays(t, g, 2, 2*elems)
			done := false
			var allocs uint64
			k.Spawn("origin", func(p *sim.Proc) {
				vals, got := make([]float64, elems), make([]float64, elems)
				run := func(n int) {
					for i := 0; i < n; i++ {
						if err := as[0].Put(p, elems, vals); err != nil {
							panic(err)
						}
						if err := as[0].Get(p, elems, got); err != nil {
							panic(err)
						}
						if err := as[0].Acc(p, elems, vals); err != nil {
							panic(err)
						}
					}
				}
				run(warm)
				allocs = alloctest.MinMallocs(func() { run(ops) })
				done = true
			})
			k.Spawn("owner", func(p *sim.Proc) {
				for !done {
					as[1].Progress(p)
					p.Delay(sim.Microsecond)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("%d Put+Get+Acc rounds allocated %d times; steady state must be 0/op", ops, allocs)
			}
		})
	}
}
