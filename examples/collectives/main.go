// Collectives example: the communication skeleton of a lattice-QCD-style
// iterative solver. Machines of the CP-PACS class spend their MPI time in
// exactly this loop — a global Allreduce of a dot product every iteration,
// with occasional Bcast/Allgather of whole fields — so it is the workload
// where the per-message efficiency of the FM binding compounds hardest.
//
// Each of 8 ranks owns a slab of lattice sites. Per iteration every rank
// computes a local partial dot product (compute time charged to the host
// model), then Allreduce(sum_f64) produces the global scalar every rank
// needs before the next step. The same loop runs over both FM bindings and
// under both Allreduce algorithms to show the layering and algorithm gaps.
//
//	go run ./examples/collectives
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	fmnet "repro"
)

const (
	ranks        = 8
	sitesPerRank = 2048 // lattice sites per rank
	iterations   = 10
)

// localField deterministically initializes rank r's slab of the field.
func localField(r int) []float64 {
	v := make([]float64, sitesPerRank)
	for i := range v {
		v[i] = math.Sin(float64(r*sitesPerRank+i) * 0.001)
	}
	return v
}

// dotLoop runs the solver skeleton over one FM generation and returns the
// final global dot product and the virtual time the slowest rank took.
func dotLoop(gen fmnet.Option, algo fmnet.CollectiveAlgo) (float64, fmnet.Time) {
	s, err := fmnet.New(fmnet.Nodes(ranks), gen, fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	var final float64
	var elapsed fmnet.Time
	s.SpawnRanks("rank", func(r int, p *fmnet.Proc) {
		c := s.MPI(r)
		c.SetCollectiveAlgo(algo)
		x := localField(c.Rank())
		y := localField(c.Rank() + ranks)
		if err := c.Barrier(p); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		var global float64
		buf := make([]byte, 8)
		out := make([]byte, 8)
		for it := 0; it < iterations; it++ {
			// Local partial dot product; the arithmetic streams both
			// operands through the cache, charged like a copy.
			partial := 0.0
			for i := range x {
				partial += x[i] * y[i]
			}
			c.Host().Memcpy(p, 16*sitesPerRank)
			binary.LittleEndian.PutUint64(buf, math.Float64bits(partial))
			if err := c.Allreduce(p, buf, out, fmnet.OpSumF64); err != nil {
				log.Fatal(err)
			}
			global = math.Float64frombits(binary.LittleEndian.Uint64(out))
			// A real CG step would now scale and update the local slab
			// with the global scalar; the communication is what we model.
			for i := range x {
				y[i] += 1e-6 * global * x[i]
			}
			c.Host().Memcpy(p, 24*sitesPerRank)
		}
		if c.Rank() == 0 {
			final = global
		}
		if d := p.Now() - start; d > elapsed {
			elapsed = d
		}
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return final, elapsed
}

func main() {
	fmt.Printf("lattice dot-product loop: %d ranks x %d sites, %d iterations\n\n",
		ranks, sitesPerRank, iterations)

	fmt.Printf("  %-22s  %14s  %12s\n", "configuration", "global dot", "time")
	type config struct {
		name string
		gen  fmnet.Option
		algo fmnet.CollectiveAlgo
	}
	for _, cfg := range []config{
		{"MPI/FM1  recdbl", fmnet.FM1(), fmnet.AlgoRecursiveDoubling},
		{"MPI-FM2  recdbl", fmnet.FM2(), fmnet.AlgoRecursiveDoubling},
		{"MPI-FM2  ring", fmnet.FM2(), fmnet.AlgoRing},
		{"MPI-FM2  flat", fmnet.FM2(), fmnet.AlgoFlat},
	} {
		dot, t := dotLoop(cfg.gen, cfg.algo)
		fmt.Printf("  %-22s  %14.6f  %12s\n", cfg.name, dot, t)
	}
	fmt.Println("\n  (the FM1-vs-FM2 gap is the paper's layering-efficiency story,")
	fmt.Println("   compounded over every message of every global sum; the 8-byte")
	fmt.Println("   Allreduce is latency-bound, so recursive doubling's O(log P)")
	fmt.Println("   rounds beat the ring's O(P))")
}
