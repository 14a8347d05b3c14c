package mpifm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Conformance tests for the collectives: every operation, on both FM
// bindings, across rank counts from 2 to 32 and message sizes spanning the
// short/long packet boundary of each machine (one fm1 packet carries 104
// MPI payload bytes, one fm2 packet 512), verified byte-for-byte against a
// star-shaped point-to-point reference implementation.

type worldMaker struct {
	name string
	mk   func(int) (*sim.Kernel, []*Comm)
}

var worldMakers = []worldMaker{{"fm1", fm1World}, {"fm2", fm2World}}

var confRanks = []int{2, 3, 4, 8, 16, 32}

// confSizes spans the short/long protocol boundary on both machines; the
// 32-rank sweep uses a long-on-both size small enough to keep sim volume
// bounded.
func confSizes(ranks int) []int {
	if ranks >= 32 {
		return []int{16, 600}
	}
	return []int{16, 300, 1500}
}

// fillPattern gives rank r a deterministic, rank-distinguishable payload.
func fillPattern(r, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r*31 + i*7 + 11)
	}
	return b
}

// refStar computes every rank's expected output using only point-to-point
// Send/Recv in a star: inputs travel to rank 0, rank 0 applies the
// operation's plain-Go meaning, and results travel back out.
func refStar(t *testing.T, ranks int, inputs [][]byte, outLens []int, sem func([][]byte) [][]byte) [][]byte {
	t.Helper()
	k, comms := fm2World(ranks)
	outs := make([][]byte, ranks)
	k.Spawn("ref0", func(p *sim.Proc) {
		all := make([][]byte, ranks)
		all[0] = append([]byte(nil), inputs[0]...)
		for src := 1; src < ranks; src++ {
			buf := make([]byte, len(inputs[src]))
			if _, err := comms[0].Recv(p, buf, src, 1); err != nil {
				t.Error(err)
				return
			}
			all[src] = buf
		}
		res := sem(all)
		outs[0] = res[0]
		for dst := 1; dst < ranks; dst++ {
			if len(res[dst]) > 0 {
				if err := comms[0].Send(p, res[dst], dst, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	for r := 1; r < ranks; r++ {
		k.Spawn(fmt.Sprintf("ref%d", r), func(p *sim.Proc) {
			if err := comms[r].Send(p, inputs[r], 0, 1); err != nil {
				t.Error(err)
				return
			}
			if outLens[r] > 0 {
				buf := make([]byte, outLens[r])
				if _, err := comms[r].Recv(p, buf, 0, 2); err != nil {
					t.Error(err)
					return
				}
				outs[r] = buf
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return outs
}

// runCollective spawns one Proc per rank executing body (which returns the
// rank's observable output, or nil) and collects the results.
func runCollective(t *testing.T, mk func(int) (*sim.Kernel, []*Comm), ranks int, algo CollectiveAlgo,
	body func(p *sim.Proc, c *Comm) []byte) [][]byte {
	t.Helper()
	k, comms := mk(ranks)
	outs := make([][]byte, ranks)
	for r := 0; r < ranks; r++ {
		comms[r].SetCollectiveAlgo(algo)
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			outs[r] = body(p, comms[r])
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return outs
}

// compareOuts checks real against reference rank by rank; ref[r] == nil
// means rank r has no defined output for this operation.
func compareOuts(t *testing.T, real, ref [][]byte) {
	t.Helper()
	for r := range ref {
		if ref[r] == nil {
			continue
		}
		if !bytes.Equal(real[r], ref[r]) {
			t.Errorf("rank %d: output differs from pt2pt reference (got %d bytes, want %d)",
				r, len(real[r]), len(ref[r]))
			return
		}
	}
}

// forEachConfig runs body over the full (binding, ranks, size) table.
func forEachConfig(t *testing.T, body func(t *testing.T, w worldMaker, ranks, size int)) {
	for _, w := range worldMakers {
		for _, ranks := range confRanks {
			if testing.Short() && ranks > 8 {
				continue
			}
			for _, size := range confSizes(ranks) {
				t.Run(fmt.Sprintf("%s/r%d/s%d", w.name, ranks, size), func(t *testing.T) {
					body(t, w, ranks, size)
				})
			}
		}
	}
}

func TestBcastConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		root := size % ranks
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, size)
			outLens[r] = size
		}
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			res := make([][]byte, ranks)
			for r := range res {
				res[r] = append([]byte(nil), all[root]...)
			}
			return res
		})
		for _, algo := range []CollectiveAlgo{AlgoFlat, AlgoBinomial} {
			outs := runCollective(t, w.mk, ranks, algo, func(p *sim.Proc, c *Comm) []byte {
				buf := fillPattern(c.Rank(), size)
				if err := c.Bcast(p, buf, root); err != nil {
					t.Error(err)
				}
				return buf
			})
			compareOuts(t, outs, ref)
		}
	})
}

func TestReduceConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		root := (size + 1) % ranks
		op := OpSumU32
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, size)
		}
		outLens[root] = size
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			acc := append([]byte(nil), all[0]...)
			for r := 1; r < ranks; r++ {
				op.Combine(acc, all[r])
			}
			res := make([][]byte, ranks)
			res[root] = acc
			return res
		})
		for _, algo := range []CollectiveAlgo{AlgoFlat, AlgoBinomial} {
			outs := runCollective(t, w.mk, ranks, algo, func(p *sim.Proc, c *Comm) []byte {
				var recvbuf []byte
				if c.Rank() == root {
					recvbuf = make([]byte, size)
				}
				if err := c.Reduce(p, fillPattern(c.Rank(), size), recvbuf, op, root); err != nil {
					t.Error(err)
				}
				return recvbuf
			})
			compareOuts(t, outs, ref)
		}
	})
}

func TestAllreduceConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		op := OpSumU32
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, size)
			outLens[r] = size
		}
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			acc := append([]byte(nil), all[0]...)
			for r := 1; r < ranks; r++ {
				op.Combine(acc, all[r])
			}
			res := make([][]byte, ranks)
			for r := range res {
				res[r] = acc
			}
			return res
		})
		algos := []CollectiveAlgo{AlgoFlat, AlgoBinomial, AlgoRing, AlgoRecursiveDoubling}
		for _, algo := range algos {
			outs := runCollective(t, w.mk, ranks, algo, func(p *sim.Proc, c *Comm) []byte {
				recvbuf := make([]byte, size)
				if err := c.Allreduce(p, fillPattern(c.Rank(), size), recvbuf, op); err != nil {
					t.Error(err)
				}
				return recvbuf
			})
			compareOuts(t, outs, ref)
		}
	})
}

func TestScatterConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		root := (size + 2) % ranks
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = []byte{byte(r)} // only root's input matters
			outLens[r] = size
		}
		inputs[root] = fillPattern(100+root, ranks*size)
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			res := make([][]byte, ranks)
			for r := range res {
				res[r] = append([]byte(nil), all[root][r*size:(r+1)*size]...)
			}
			return res
		})
		outs := runCollective(t, w.mk, ranks, AlgoAuto, func(p *sim.Proc, c *Comm) []byte {
			var sendbuf []byte
			if c.Rank() == root {
				sendbuf = fillPattern(100+root, ranks*size)
			}
			recvbuf := make([]byte, size)
			if err := c.Scatter(p, sendbuf, recvbuf, root); err != nil {
				t.Error(err)
			}
			return recvbuf
		})
		compareOuts(t, outs, ref)
	})
}

func TestGatherConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		root := (size + 3) % ranks
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, size)
		}
		outLens[root] = ranks * size
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			cat := []byte{}
			for r := 0; r < ranks; r++ {
				cat = append(cat, all[r]...)
			}
			res := make([][]byte, ranks)
			res[root] = cat
			return res
		})
		outs := runCollective(t, w.mk, ranks, AlgoAuto, func(p *sim.Proc, c *Comm) []byte {
			var recvbuf []byte
			if c.Rank() == root {
				recvbuf = make([]byte, ranks*size)
			}
			if err := c.Gather(p, fillPattern(c.Rank(), size), recvbuf, root); err != nil {
				t.Error(err)
			}
			return recvbuf
		})
		compareOuts(t, outs, ref)
	})
}

func TestAllgatherConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, size)
			outLens[r] = ranks * size
		}
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			cat := []byte{}
			for r := 0; r < ranks; r++ {
				cat = append(cat, all[r]...)
			}
			res := make([][]byte, ranks)
			for r := range res {
				res[r] = cat
			}
			return res
		})
		for _, algo := range []CollectiveAlgo{AlgoRing, AlgoRecursiveDoubling} {
			outs := runCollective(t, w.mk, ranks, algo, func(p *sim.Proc, c *Comm) []byte {
				recvbuf := make([]byte, ranks*size)
				if err := c.Allgather(p, fillPattern(c.Rank(), size), recvbuf); err != nil {
					t.Error(err)
				}
				return recvbuf
			})
			compareOuts(t, outs, ref)
		}
	})
}

func TestAlltoallConformance(t *testing.T) {
	forEachConfig(t, func(t *testing.T, w worldMaker, ranks, size int) {
		inputs := make([][]byte, ranks)
		outLens := make([]int, ranks)
		for r := range inputs {
			inputs[r] = fillPattern(r, ranks*size)
			outLens[r] = ranks * size
		}
		ref := refStar(t, ranks, inputs, outLens, func(all [][]byte) [][]byte {
			res := make([][]byte, ranks)
			for j := range res {
				res[j] = make([]byte, ranks*size)
				for i := 0; i < ranks; i++ {
					copy(res[j][i*size:], all[i][j*size:(j+1)*size])
				}
			}
			return res
		})
		outs := runCollective(t, w.mk, ranks, AlgoAuto, func(p *sim.Proc, c *Comm) []byte {
			recvbuf := make([]byte, ranks*size)
			if err := c.Alltoall(p, fillPattern(c.Rank(), ranks*size), recvbuf); err != nil {
				t.Error(err)
			}
			return recvbuf
		})
		compareOuts(t, outs, ref)
	})
}

// TestReduceOps checks each built-in ReduceOp against hand-computed values.
func TestReduceOps(t *testing.T) {
	u32 := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	inout := u32(1, 100, 7)
	OpSumU32.Combine(inout, u32(2, 23, 0))
	if !bytes.Equal(inout, u32(3, 123, 7)) {
		t.Error("OpSumU32 wrong")
	}
	inout = u32(1, 100, 7)
	OpMaxU32.Combine(inout, u32(2, 23, 7))
	if !bytes.Equal(inout, u32(2, 100, 7)) {
		t.Error("OpMaxU32 wrong")
	}
	inout = []byte{0xF0, 0x0F}
	OpXor.Combine(inout, []byte{0xFF, 0xFF})
	if !bytes.Equal(inout, []byte{0x0F, 0xF0}) {
		t.Error("OpXor wrong")
	}
	f64 := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	inout = f64(1.5, -2)
	OpSumF64.Combine(inout, f64(2.5, 10))
	if !bytes.Equal(inout, f64(4, 8)) {
		t.Error("OpSumF64 wrong")
	}
}

// TestAllreduceAllOps runs a small Allreduce with each built-in op on both
// bindings against the plain-Go fold.
func TestAllreduceAllOps(t *testing.T) {
	const ranks, size = 4, 64
	for _, w := range worldMakers {
		for _, op := range []ReduceOp{OpSumU32, OpMaxU32, OpXor, OpSumF64} {
			t.Run(w.name+"/"+op.Name, func(t *testing.T) {
				want := append([]byte(nil), fillPattern(0, size)...)
				for r := 1; r < ranks; r++ {
					op.Combine(want, fillPattern(r, size))
				}
				outs := runCollective(t, w.mk, ranks, AlgoAuto, func(p *sim.Proc, c *Comm) []byte {
					recvbuf := make([]byte, size)
					if err := c.Allreduce(p, fillPattern(c.Rank(), size), recvbuf, op); err != nil {
						t.Error(err)
					}
					return recvbuf
				})
				for r, out := range outs {
					if !bytes.Equal(out, want) {
						t.Errorf("rank %d: %s result differs from plain fold", r, op.Name)
					}
				}
			})
		}
	}
}

// TestCollectiveArgErrors exercises the validation paths.
func TestCollectiveArgErrors(t *testing.T) {
	k, comms := fm2World(2)
	k.Spawn("rank0", func(p *sim.Proc) {
		c := comms[0]
		if err := c.Bcast(p, []byte{1}, 5); err == nil {
			t.Error("bad root accepted")
		}
		if err := c.Allreduce(p, []byte{1, 2, 3}, make([]byte, 3), OpSumU32); err == nil {
			t.Error("non-multiple of elem size accepted")
		}
		if err := c.Allreduce(p, []byte{1, 2, 3, 4}, make([]byte, 8), OpSumU32); err == nil {
			t.Error("mismatched recvbuf accepted")
		}
		if err := c.Scatter(p, make([]byte, 3), make([]byte, 2), 0); err == nil {
			t.Error("short scatter sendbuf accepted")
		}
		if err := c.Gather(p, make([]byte, 2), make([]byte, 3), 0); err == nil {
			t.Error("short gather recvbuf accepted")
		}
		if err := c.Allgather(p, make([]byte, 2), make([]byte, 3)); err == nil {
			t.Error("short allgather recvbuf accepted")
		}
		if err := c.Alltoall(p, make([]byte, 3), make([]byte, 3)); err == nil {
			t.Error("non-divisible alltoall buffer accepted")
		}
		if err := c.Alltoall(p, make([]byte, 4), make([]byte, 2)); err == nil {
			t.Error("mismatched alltoall buffers accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedLegWithdrawsItsReceive: a collective leg posts its receive
// before it sends, so a send that fails — here over the transport limit —
// must withdraw the receive, or a later message with the leg's tag would
// land in a buffer the caller has given up (and a recycled record would be
// reused while still posted). Rank 0 calls Allreduce alone.
func TestFailedLegWithdrawsItsReceive(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		c := comms[0]
		k.Spawn("rank0", func(p *sim.Proc) {
			n := c.maxPayload() + 8
			err := c.Allreduce(p, make([]byte, n), make([]byte, n), OpXor)
			if err == nil || !strings.Contains(err.Error(), "exceeds transport limit") {
				t.Errorf("over-limit Allreduce returned %v, want the transport-limit error", err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(c.posted) != 0 {
			t.Errorf("%d receive(s) left posted after the failed leg", len(c.posted))
		}
	})
}

// TestCollectivesDontDisturbPt2pt interleaves a collective with ordinary
// tagged traffic: the reserved tag region must keep them separate.
func TestCollectivesDontDisturbPt2pt(t *testing.T) {
	bothWorlds(t, 4, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		for r := 0; r < 4; r++ {
			k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				c := comms[r]
				// Post a pt2pt receive that must NOT match collective traffic.
				var pt [4]byte
				req, err := c.Irecv(p, pt[:], AnySource, 77)
				if err != nil {
					t.Error(err)
					return
				}
				buf := fillPattern(0, 32)
				if err := c.Bcast(p, buf, 0); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, fillPattern(0, 32)) {
					t.Error("bcast payload corrupted")
				}
				// Now complete the pt2pt exchange ring-wise.
				right := (r + 1) % 4
				if err := c.Send(p, []byte{byte(r), 0, 0, 0}, right, 77); err != nil {
					t.Error(err)
					return
				}
				st := c.Wait(p, req)
				if st.Tag != 77 || pt[0] != byte((r+3)%4) {
					t.Errorf("rank %d pt2pt got tag %d from %d", r, st.Tag, st.Source)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
