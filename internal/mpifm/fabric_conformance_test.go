package mpifm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Multi-stage fabric conformance: all seven collectives at 64 ranks on the
// fat-tree and torus platforms, over both FM bindings. The fabric changes
// every route, every contention point, and (through the grown receive
// ring) the flow-control windows — and must change nothing about the
// bytes: each run is compared against the plain-Go meaning of the
// operations, across bindings, and across repeated runs (virtual-time
// determinism).

const fabricRanks = 64
const fabricSize = 16 // bytes per rank contribution (multiple of 4)

// fabricWorld builds a 64-rank world on the given multi-switch topology.
func fabricWorld(binding string, topo cluster.Topology) (*sim.Kernel, []*Comm) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = fabricRanks
	cfg.Topology = topo
	g := xport.GenFM2
	if binding == "fm1" {
		g = xport.GenFM1
	}
	cfg.Profile = g.Profile()
	return k, attachWorld(cluster.New(k, cfg), g, Options{})
}

// expectedOutputs computes every rank's concatenated observable output for
// the seven-op sequence in plain Go.
func expectedOutputs() [][]byte {
	n, size := fabricRanks, fabricSize
	in := make([][]byte, n)
	for r := range in {
		in[r] = fillPattern(r, size)
	}
	wide := make([][]byte, n) // per-rank ranks*size inputs for alltoall
	for r := range wide {
		wide[r] = fillPattern(r, n*size)
	}
	rootWide := fillPattern(100, n*size) // scatter root buffer

	sum := append([]byte(nil), in[0]...)
	for r := 1; r < n; r++ {
		OpSumU32.Combine(sum, in[r])
	}
	var cat []byte
	for r := 0; r < n; r++ {
		cat = append(cat, in[r]...)
	}

	outs := make([][]byte, n)
	for r := 0; r < n; r++ {
		var b bytes.Buffer
		b.Write(in[0]) // bcast from root 0
		if r == 0 {    // reduce at root 0
			b.Write(sum)
		}
		b.Write(sum)                           // allreduce
		b.Write(rootWide[r*size : (r+1)*size]) // scatter from root 0
		if r == 0 {                            // gather at root 0
			b.Write(cat)
		}
		b.Write(cat)             // allgather
		for i := 0; i < n; i++ { // alltoall
			b.Write(wide[i][r*size : (r+1)*size])
		}
		outs[r] = b.Bytes()
	}
	return outs
}

// runFabricWorkload executes the seven-op sequence on one world and
// returns each rank's concatenated outputs plus the completion time.
func runFabricWorkload(t *testing.T, binding string, topo cluster.Topology) ([][]byte, sim.Time) {
	t.Helper()
	k, comms := fabricWorld(binding, topo)
	n, size := fabricRanks, fabricSize
	outs := make([][]byte, n)
	for r := 0; r < n; r++ {
		c := comms[r]
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			var got bytes.Buffer
			fail := func(err error) {
				if err != nil {
					t.Errorf("rank %d on %v/%s: %v", c.Rank(), topo, binding, err)
				}
			}

			// Root 0 broadcasts its pattern; every other rank's input is
			// overwritten in place.
			buf := fillPattern(c.Rank(), size)
			fail(c.Bcast(p, buf, 0))
			got.Write(buf)

			var redOut []byte
			if c.Rank() == 0 {
				redOut = make([]byte, size)
			}
			fail(c.Reduce(p, fillPattern(c.Rank(), size), redOut, OpSumU32, 0))
			got.Write(redOut)

			arOut := make([]byte, size)
			fail(c.Allreduce(p, fillPattern(c.Rank(), size), arOut, OpSumU32))
			got.Write(arOut)

			var scIn []byte
			if c.Rank() == 0 {
				scIn = fillPattern(100, n*size)
			}
			scOut := make([]byte, size)
			fail(c.Scatter(p, scIn, scOut, 0))
			got.Write(scOut)

			var gaOut []byte
			if c.Rank() == 0 {
				gaOut = make([]byte, n*size)
			}
			fail(c.Gather(p, fillPattern(c.Rank(), size), gaOut, 0))
			got.Write(gaOut)

			agOut := make([]byte, n*size)
			fail(c.Allgather(p, fillPattern(c.Rank(), size), agOut))
			got.Write(agOut)

			aaOut := make([]byte, n*size)
			fail(c.Alltoall(p, fillPattern(c.Rank(), n*size), aaOut))
			got.Write(aaOut)

			outs[c.Rank()] = got.Bytes()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("%v/%s: %v", topo, binding, err)
	}
	return outs, k.Now()
}

// TestFabricConformance64 is the acceptance gate: byte-identical,
// virtual-time-deterministic results for all seven collectives at 64 ranks
// on the fat-tree and torus fabrics, over both bindings.
func TestFabricConformance64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank fabric sweep")
	}
	want := expectedOutputs()
	for _, topo := range []cluster.Topology{cluster.FatTree, cluster.Torus2D} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			for _, binding := range []string{"fm1", "fm2"} {
				binding := binding
				t.Run(binding, func(t *testing.T) {
					outs1, end1 := runFabricWorkload(t, binding, topo)
					outs2, end2 := runFabricWorkload(t, binding, topo)
					if end1 != end2 {
						t.Errorf("nondeterministic: run ends %v vs %v", end1, end2)
					}
					for r := 0; r < fabricRanks; r++ {
						if !bytes.Equal(outs1[r], want[r]) {
							t.Errorf("rank %d output differs from plain-Go semantics (got %d bytes, want %d)",
								r, len(outs1[r]), len(want[r]))
							break
						}
						if !bytes.Equal(outs1[r], outs2[r]) {
							t.Errorf("rank %d output differs between runs", r)
							break
						}
					}
				})
			}
		})
	}
}
