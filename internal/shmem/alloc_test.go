package shmem

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestPutGetZeroAlloc pins the one-sided path to zero mallocs over both
// bindings: after warm-up, a window of Put+Quiet round trips, or of Gets —
// the origin's calls and, interleaved with them under the kernel, the
// target's handlers and replies — allocates nothing.
func TestPutGetZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, ops, size = 100, 200, 1024
	for _, op := range []struct {
		name string
		do   func(p *sim.Proc, n *Node, buf []byte) error
	}{
		{"put+quiet", func(p *sim.Proc, n *Node, buf []byte) error {
			err := n.Put(p, 1, 1, 0, buf)
			n.Quiet(p)
			return err
		}},
		{"get", func(p *sim.Proc, n *Node, buf []byte) error { return n.Get(p, 1, 1, 0, buf) }},
	} {
		for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
			t.Run(op.name+"/"+g.String(), func(t *testing.T) {
				k, ns := genNodes(g, 2)
				ns[1].Register(1, make([]byte, size))
				done := false
				var allocs uint64
				k.Spawn("origin", func(p *sim.Proc) {
					buf := make([]byte, size)
					run := func(n int) {
						for i := 0; i < n; i++ {
							if err := op.do(p, ns[0], buf); err != nil {
								panic(err)
							}
						}
					}
					run(warm)
					allocs = alloctest.MinMallocs(func() { run(ops) })
					done = true
				})
				k.Spawn("target", func(p *sim.Proc) { serve(p, ns[1], func() bool { return done }) })
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if allocs > alloctest.AllowStray {
					t.Fatalf("%d %s operations allocated %d times; steady state must be 0/op", ops, op.name, allocs)
				}
			})
		}
	}
}
