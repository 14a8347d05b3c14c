package sockfm

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestWriteReadZeroAlloc pins the socket layer's steady-state data path to
// zero mallocs over both bindings: after warm-up, a window of Writes — and,
// interleaved with them under the kernel, the peer's handlers and Reads —
// allocates nothing. A per-segment allocation would show up once per Write.
func TestWriteReadZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, msgs, size = 100, 300, 1024
	for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		t.Run(g.String(), func(t *testing.T) {
			k, sts := genStacks(g, 2)
			var allocs uint64
			k.Spawn("server", func(p *sim.Proc) {
				l, err := sts[0].Listen(80)
				if err != nil {
					panic(err)
				}
				conn, _ := l.Accept(p)
				buf := make([]byte, size)
				for got := 0; got < (warm+alloctest.Windows*msgs)*size; {
					n, err := conn.Read(p, buf)
					if err != nil {
						panic(err)
					}
					got += n
				}
			})
			k.Spawn("client", func(p *sim.Proc) {
				conn, err := sts[1].Dial(p, 0, 80)
				if err != nil {
					panic(err)
				}
				msg := make([]byte, size)
				write := func(n int) {
					for i := 0; i < n; i++ {
						if _, err := conn.Write(p, msg); err != nil {
							panic(err)
						}
					}
				}
				write(warm)
				allocs = alloctest.MinMallocs(func() { write(msgs) })
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("%d Writes allocated %d times; steady state must be 0/op", msgs, allocs)
			}
		})
	}
}
