package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Collective scaling drivers: the paper's layering-efficiency argument,
// extended from one stream to whole communication patterns. Rank count is
// the new axis — real MPI workloads on CP-PACS-class machines are dominated
// by collectives across many ranks, and the per-message copy tax of the
// FM 1.x interface compounds with every message a collective sends.

// CollectiveOp is one MPI-FM collective operation: a row of AllCollectives.
type CollectiveOp = *collective

type collective struct {
	name string
	// buffers sizes the operation's buffers for one rank (0 = none). size is
	// the per-rank contribution in bytes (rounded to the reduction element
	// size by collSize); root-wide buffers are size*ranks.
	buffers func(ranks, rank, size int) (send, recv int)
	// run executes one round on rank c (root 0 for rooted operations).
	run func(p *sim.Proc, c *mpifm.Comm, sendbuf, recvbuf []byte) error
}

func (op *collective) String() string { return op.name }

// atRoot is a root-wide buffer's size: n at rank 0, none anywhere else.
func atRoot(rank, n int) int {
	if rank == 0 {
		return n
	}
	return 0
}

// The seven collectives, in figure order.
var (
	CollBcast = &collective{"bcast",
		func(ranks, rank, size int) (int, int) { return size, 0 },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Bcast(p, s, 0) }}
	CollReduce = &collective{"reduce",
		func(ranks, rank, size int) (int, int) { return size, size },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Reduce(p, s, r, mpifm.OpSumU32, 0) }}
	CollAllreduce = &collective{"allreduce",
		func(ranks, rank, size int) (int, int) { return size, size },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Allreduce(p, s, r, mpifm.OpSumU32) }}
	CollScatter = &collective{"scatter",
		func(ranks, rank, size int) (int, int) { return atRoot(rank, size*ranks), size },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Scatter(p, s, r, 0) }}
	CollGather = &collective{"gather",
		func(ranks, rank, size int) (int, int) { return size, atRoot(rank, size*ranks) },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Gather(p, s, r, 0) }}
	CollAllgather = &collective{"allgather",
		func(ranks, rank, size int) (int, int) { return size, size * ranks },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Allgather(p, s, r) }}
	CollAlltoall = &collective{"alltoall",
		func(ranks, rank, size int) (int, int) { return size * ranks, size * ranks },
		func(p *sim.Proc, c *mpifm.Comm, s, r []byte) error { return c.Alltoall(p, s, r) }}
)

// AllCollectives lists every op in figure order.
var AllCollectives = []CollectiveOp{
	CollBcast, CollReduce, CollAllreduce, CollScatter, CollGather, CollAllgather, CollAlltoall,
}

// collBuffers allocates the operation's buffers for one rank: the send
// buffer filled with a rank-dependent pattern, the receive buffer zeroed.
func collBuffers(op CollectiveOp, ranks, rank, size int) (sendbuf, recvbuf []byte) {
	send, recv := op.buffers(ranks, rank, size)
	if send > 0 {
		sendbuf = make([]byte, send)
		for i := range sendbuf {
			sendbuf[i] = byte(rank*31 + i*7 + 11)
		}
	}
	if recv > 0 {
		recvbuf = make([]byte, recv)
	}
	return sendbuf, recvbuf
}

// collSize rounds a per-rank contribution down to a multiple of the
// reduction element width, minimum 4.
func collSize(size int) int {
	size -= size % 4
	if size < 4 {
		size = 4
	}
	return size
}

// spawnCollective is the one timed-collective body, on whatever world it is
// handed: every rank aligns on a barrier, stamps, runs op once (size bytes
// per rank, already collSize'd), and stamps again. The caller runs the world
// and reads span(stamps).
func spawnCollective(pl *cluster.Platform, comms []*mpifm.Comm, op CollectiveOp, algo mpifm.CollectiveAlgo,
	size int) []stamp {
	stamps := make([]stamp, len(comms))
	for r, c := range comms {
		c.SetCollectiveAlgo(algo)
		pl.K.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			sendbuf, recvbuf := collBuffers(op, len(comms), c.Rank(), size)
			if err := c.Barrier(p); err != nil {
				panic(err)
			}
			stamps[r].start = p.Now()
			if err := op.run(p, c, sendbuf, recvbuf); err != nil {
				panic(err)
			}
			stamps[r].end = p.Now()
		}).ActsFor(r)
	}
	return stamps
}

// CollectiveTimeOn measures the virtual time of one collective on fabric f:
// ranks align on a barrier, run op once, and the reported time is from the
// earliest post-barrier instant to the last rank's completion. size is bytes
// contributed per rank (see collSize).
func CollectiveTimeOn(m xport.Machine, f Fabric, op CollectiveOp, algo mpifm.CollectiveAlgo, ranks, size int) sim.Time {
	size = collSize(size)
	pl, comms := mpiWorld(m, ranks, f, mpifm.Options{})
	stamps := spawnCollective(pl, comms, op, algo, size)
	run(pl, "%s ranks=%d size=%d algo=%s on %s", op, ranks, size, algo, f)
	return span(stamps)
}

// CollectiveTime is CollectiveTimeOn one crossbar, as the paper's clusters
// were wired.
func CollectiveTime(m xport.Machine, op CollectiveOp, algo mpifm.CollectiveAlgo, ranks, size int) sim.Time {
	return CollectiveTimeOn(m, FabSingle, op, algo, ranks, size)
}

// CollectiveScalingConfig parameterizes the scaling figure. Every point is
// one operation under mpifm.AlgoAuto.
type CollectiveScalingConfig struct {
	Ops   []CollectiveOp
	Ranks []int
	Size  int // bytes per rank contribution
}

// DefaultCollectiveScalingConfig sweeps all seven collectives from 2 to 64
// ranks at 1 KiB per rank.
func DefaultCollectiveScalingConfig() CollectiveScalingConfig {
	return CollectiveScalingConfig{
		Ops:   AllCollectives,
		Ranks: []int{2, 4, 8, 16, 32, 64},
		Size:  1024,
	}
}

// ScalingPoint is one rank count's time-per-op on both bindings.
type ScalingPoint struct {
	Ranks int
	FM1us float64 // MPI over FM 1.x (sparc)
	FM2us float64 // MPI-FM 2.0 (ppro200)
}

// CollectiveScalingOn computes one op's rank-count scaling series on both
// bindings over fabric f.
func CollectiveScalingOn(f Fabric, op CollectiveOp, cfg CollectiveScalingConfig) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(cfg.Ranks))
	for _, n := range cfg.Ranks {
		pts = append(pts, ScalingPoint{
			Ranks: n,
			FM1us: CollectiveTimeOn(xport.GenFM1.Machine(), f, op, mpifm.AlgoAuto, n, cfg.Size).Micros(),
			FM2us: CollectiveTimeOn(xport.GenFM2.Machine(), f, op, mpifm.AlgoAuto, n, cfg.Size).Micros(),
		})
	}
	return pts
}

// CollectiveScaling computes one op's scaling series over rank count on
// both FM bindings (one crossbar).
func CollectiveScaling(op CollectiveOp, cfg CollectiveScalingConfig) []ScalingPoint {
	return CollectiveScalingOn(FabSingle, op, cfg)
}

// WriteCollectiveScaling renders the rank-count scaling table for every op
// in cfg: the collectives counterpart of the Figure 4/6 story, with the
// FM2/FM1 ratio showing how the interface gap compounds across patterns.
func WriteCollectiveScaling(w io.Writer, cfg CollectiveScalingConfig) {
	fmt.Fprintf(w, "Collective scaling: time per operation (us), %d B per rank, algo=auto\n", cfg.Size)
	for _, op := range cfg.Ops {
		pts := CollectiveScaling(op, cfg)
		fmt.Fprintf(w, "  %s\n", op)
		fmt.Fprintf(w, "    %6s  %12s  %12s  %8s\n", "ranks", "MPI/FM1", "MPI-FM 2.0", "speedup")
		for _, pt := range pts {
			ratio := 0.0
			if pt.FM2us > 0 {
				ratio = pt.FM1us / pt.FM2us
			}
			fmt.Fprintf(w, "    %6d  %12.2f  %12.2f  %7.1fx\n", pt.Ranks, pt.FM1us, pt.FM2us, ratio)
		}
	}
}

// WriteCollectiveSizeSweep renders time per op across message sizes at a
// fixed rank count for a subset of ops, both bindings side by side.
func WriteCollectiveSizeSweep(w io.Writer, ranks int, sizes []int) {
	ops := []CollectiveOp{CollBcast, CollAllreduce, CollAlltoall}
	fmt.Fprintf(w, "Collective size sweep at %d ranks: time per operation (us)\n", ranks)
	fmt.Fprintf(w, "  %8s", "size")
	for _, op := range ops {
		fmt.Fprintf(w, "  %10s_1  %10s_2", op, op)
	}
	fmt.Fprintln(w)
	for _, s := range sizes {
		fmt.Fprintf(w, "  %8d", s)
		for _, op := range ops {
			t1 := CollectiveTime(xport.GenFM1.Machine(), op, mpifm.AlgoAuto, ranks, s)
			t2 := CollectiveTime(xport.GenFM2.Machine(), op, mpifm.AlgoAuto, ranks, s)
			fmt.Fprintf(w, "  %12.2f  %12.2f", t1.Micros(), t2.Micros())
		}
		fmt.Fprintln(w)
	}
}

// WriteCollectiveAlgos renders the algorithm-variant comparison: the same
// op under each applicable CollectiveAlgo, both bindings. The flat-vs-tree
// and ring-vs-doubling gaps shift between FM generations because the
// variants trade message count against bytes moved, and the two interfaces
// price those differently.
func WriteCollectiveAlgos(w io.Writer, ranks, size int) {
	variants := []struct {
		op    CollectiveOp
		algos []mpifm.CollectiveAlgo
	}{
		{CollBcast, []mpifm.CollectiveAlgo{mpifm.AlgoFlat, mpifm.AlgoBinomial}},
		{CollReduce, []mpifm.CollectiveAlgo{mpifm.AlgoFlat, mpifm.AlgoBinomial}},
		{CollAllreduce, []mpifm.CollectiveAlgo{mpifm.AlgoFlat, mpifm.AlgoBinomial,
			mpifm.AlgoRing, mpifm.AlgoRecursiveDoubling}},
		{CollAllgather, []mpifm.CollectiveAlgo{mpifm.AlgoRing, mpifm.AlgoRecursiveDoubling}},
	}
	fmt.Fprintf(w, "Collective algorithm variants at %d ranks, %d B per rank: time per op (us)\n",
		ranks, size)
	fmt.Fprintf(w, "  %-10s  %-10s  %12s  %12s\n", "op", "algo", "MPI/FM1", "MPI-FM 2.0")
	pow2 := ranks&(ranks-1) == 0
	for _, v := range variants {
		for _, a := range v.algos {
			if v.op == CollAllgather && a == mpifm.AlgoRecursiveDoubling && !pow2 {
				continue // would silently fall back to ring; don't mislabel it
			}
			t1 := CollectiveTime(xport.GenFM1.Machine(), v.op, a, ranks, size)
			t2 := CollectiveTime(xport.GenFM2.Machine(), v.op, a, ranks, size)
			fmt.Fprintf(w, "  %-10s  %-10s  %12.2f  %12.2f\n", v.op, a, t1.Micros(), t2.Micros())
		}
	}
}
