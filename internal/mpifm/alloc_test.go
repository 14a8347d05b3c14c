package mpifm

import (
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
	"repro/internal/xport"
)

// The pins below hold the MPI layer's steady-state message path to zero
// mallocs over both bindings: after a warm-up has grown every free list and
// scratch array, a window of traffic — the sender's calls and, interleaved
// with them under the kernel, the receiver's handlers — allocates nothing.
// Per-message allocations would show up once per message in every window.

var gens = []xport.Gen{xport.GenFM2, xport.GenFM1}

// TestSendRecvStreamZeroAlloc: a stream of Sends met by blocking Recvs.
func TestSendRecvStreamZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, msgs, size = 100, 300, 1024
	for _, g := range gens {
		t.Run(g.String(), func(t *testing.T) {
			k, comms := genWorld(g, 2)
			var allocs uint64
			k.Spawn("rank0", func(p *sim.Proc) {
				msg := make([]byte, size)
				send := func(n int) {
					for i := 0; i < n; i++ {
						if err := comms[0].Send(p, msg, 1, 1); err != nil {
							panic(err)
						}
					}
				}
				send(warm)
				allocs = alloctest.MinMallocs(func() { send(msgs) })
			})
			k.Spawn("rank1", func(p *sim.Proc) {
				buf := make([]byte, size)
				for i := 0; i < warm+alloctest.Windows*msgs; i++ {
					if _, err := comms[1].Recv(p, buf, 0, 1); err != nil {
						panic(err)
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("%d Send/Recv messages allocated %d times; steady state must be 0/op", msgs, allocs)
			}
		})
	}
}

// TestAllreduceZeroAlloc: one 8-rank Allreduce round (recursive doubling:
// sendrecv legs, combine scratch, unexpected arrivals) measured on rank 0.
func TestAllreduceZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const ranks, warm, size = 8, 20, 256
	for _, g := range gens {
		t.Run(g.String(), func(t *testing.T) {
			k, comms := genWorld(g, ranks)
			var allocs uint64
			for r := 0; r < ranks; r++ {
				k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					send, recv := fillPattern(r, size), make([]byte, size)
					round := func() {
						if err := comms[r].Allreduce(p, send, recv, OpSumU32); err != nil {
							panic(err)
						}
					}
					for i := 0; i < warm; i++ {
						round()
					}
					if r == 0 {
						allocs = alloctest.MinMallocs(round)
						return
					}
					for i := 0; i < alloctest.Windows; i++ {
						round()
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("an %d-rank Allreduce round allocated %d times; steady state must be 0", ranks, allocs)
			}
		})
	}
}
