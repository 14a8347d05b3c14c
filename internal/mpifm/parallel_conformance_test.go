package mpifm

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Parallel-engine conformance: the full seven-collective fabric workload,
// fused vs partitioned, compared byte-for-byte including the virtual
// completion time. The shape matters: the exactness certificate only holds
// when no cut arrival ever finds its downstream queue full, so the
// partitioned runs use a full-bisection fat tree with deepened port queues
// — applied identically to the fused twin, so the comparison stays honest.

// parFabricConfig is the shared shape for both engines: full bisection
// (spines == hosts per edge) and deep port queues keep barrier and
// collective fan-in from ever filling a trunk queue, which is what lets
// the conservative engine reproduce sequential timing exactly.
func parFabricConfig(nodes int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Topology = cluster.FatTree
	cfg.AutoShape()
	cfg.Uplinks = cfg.HostsPerSwitch
	cfg.Profile.Link.Slots = 64
	return cfg
}

// runParWorkload runs the seven-op collective sequence at `nodes` ranks on
// FM2, either fused (parts <= 1) or split across `parts` LPs, returning
// each rank's concatenated outputs, the completion time, and the fabric.
func runParWorkload(t *testing.T, nodes, parts int) ([][]byte, sim.Time, *netsim.Network) {
	t.Helper()
	cfg := parFabricConfig(nodes)
	cfg.Parallelism = parts
	pl, err := cluster.Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comms := attachWorld(pl, xport.GenFM2, Options{})
	n, size := nodes, fabricSize
	outs := make([][]byte, n)
	for r := 0; r < n; r++ {
		c := comms[r]
		pl.KernelOf(r).Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			var got bytes.Buffer
			fail := func(err error) {
				if err != nil {
					t.Errorf("rank %d (parts=%d): %v", c.Rank(), parts, err)
				}
			}

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
	if err := pl.Run(); err != nil {
		t.Fatalf("parts=%d: %v", parts, err)
	}
	return outs, pl.Net.K.Now(), pl.Net
}

func checkParConformance(t *testing.T, nodes int, partsList []int) {
	t.Helper()
	seqOuts, seqEnd, _ := runParWorkload(t, nodes, 1)
	for _, parts := range partsList {
		parOuts, parEnd, net := runParWorkload(t, nodes, parts)
		if stalls := net.CutStalls(); stalls != 0 {
			t.Errorf("parts=%d: %d cut stalls — shape no longer congestion-free, exactness not certified", parts, stalls)
			continue
		}
		if parEnd != seqEnd {
			t.Errorf("parts=%d: completion time %v, sequential %v", parts, parEnd, seqEnd)
		}
		for r := 0; r < nodes; r++ {
			if !bytes.Equal(seqOuts[r], parOuts[r]) {
				t.Errorf("parts=%d: rank %d outputs diverge from sequential", parts, r)
				break
			}
		}
	}
}

// TestParallelFabricConformance16 is the always-on gate: 16 ranks, 2 and
// 4 LPs, all seven collectives bit-identical to the fused kernel.
func TestParallelFabricConformance16(t *testing.T) {
	checkParConformance(t, 16, []int{2, 4})
}

// TestParallelFabricConformance64 replays the full 64-rank conformance
// shape under the parallel engine. Heavy; CI sets the gate.
func TestParallelFabricConformance64(t *testing.T) {
	if os.Getenv("FMNET_PAR_CONFORMANCE") == "" && testing.Short() {
		t.Skip("64-rank parallel sweep (set FMNET_PAR_CONFORMANCE=1 or run without -short)")
	}
	checkParConformance(t, 64, []int{2, 4, 8})
}
