package mpifm

import "repro/internal/sim"

// Algorithm bodies for the collectives. Every reduction here assumes a
// commutative op (all built-ins are); combine *association* differs between
// algorithms and ranks, as in any real MPI implementation.

// --- broadcast ---

// bcastFlat: root sends to every rank directly. Each destination is waiting
// in its Recv, so the root's sequential sends never form a blocked cycle.
func (c *Comm) bcastFlat(p *sim.Proc, buf []byte, root, tag int) error {
	if c.rank != root {
		_, err := c.Recv(p, buf, root, tag)
		return err
	}
	for dst := 0; dst < c.size; dst++ {
		if dst == root {
			continue
		}
		if err := c.Send(p, buf, dst, tag); err != nil {
			return err
		}
	}
	return nil
}

// bcastBinomial: the classic binomial tree on root-relative ranks. Data
// flows strictly parent -> child, so the dependency graph is the tree
// itself: acyclic, hence deadlock-free at any message size.
func (c *Comm) bcastBinomial(p *sim.Proc, buf []byte, root, tag int) error {
	size := c.size
	vrank := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			if _, err := c.Recv(p, buf, parent, tag); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			child := (vrank + mask + root) % size
			if err := c.Send(p, buf, child, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- reduce ---

// reduceFlat: every rank sends to root; root combines in rank order. The
// root is extracting for the whole operation, so concurrent senders drain
// through the posted queue or the unexpected pool — the P-fold version of
// the copy-cost story told by the Figure 4/6 Direct-vs-Unexpected counters.
func (c *Comm) reduceFlat(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, root, tag int) error {
	if c.rank != root {
		return c.Send(p, sendbuf, root, tag)
	}
	c.localCopy(p, recvbuf, sendbuf)
	tmp := c.tmpPool.Get(len(sendbuf))
	defer c.tmpPool.Put(tmp)
	for src := 0; src < c.size; src++ {
		if src == root {
			continue
		}
		if _, err := c.Recv(p, tmp, src, tag); err != nil {
			return err
		}
		c.combine(p, op, recvbuf, tmp)
	}
	return nil
}

// reduceBinomial: binomial tree, leaves inward. A rank receives from each
// child subtree in increasing mask order, combines, then sends its
// accumulated result to its parent. Data flows child -> parent only.
func (c *Comm) reduceBinomial(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, root, tag int) error {
	size := c.size
	vrank := (c.rank - root + size) % size
	acc := recvbuf
	if c.rank != root {
		acc = c.tmpPool.Get(len(sendbuf))
		defer c.tmpPool.Put(acc)
	}
	c.localCopy(p, acc, sendbuf)
	tmp := c.tmpPool.Get(len(sendbuf))
	defer c.tmpPool.Put(tmp)
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			return c.Send(p, acc, parent, tag)
		}
		if childV := vrank + mask; childV < size {
			child := (childV + root) % size
			if _, err := c.Recv(p, tmp, child, tag); err != nil {
				return err
			}
			c.combine(p, op, acc, tmp)
		}
	}
	return nil // root: every subtree folded in
}

// reduceToThenBcast: Allreduce as Reduce to rank 0 followed by Bcast, both
// in the selected flat/binomial family. The two phases may share one tag:
// reduce messages flow toward rank 0 and bcast messages away from it, so no
// (source, tag) pair is ever ambiguous.
func (c *Comm) reduceToThenBcast(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, tag int) error {
	if c.collAlgo == AlgoFlat {
		if err := c.reduceFlat(p, sendbuf, recvbuf, op, 0, tag); err != nil {
			return err
		}
		return c.bcastFlat(p, recvbuf, 0, tag)
	}
	if err := c.reduceBinomial(p, sendbuf, recvbuf, op, 0, tag); err != nil {
		return err
	}
	return c.bcastBinomial(p, recvbuf, 0, tag)
}

// --- allreduce ---

// allreduceRecDbl: recursive doubling over the largest power-of-two rank
// set; leftover ranks fold their contribution into a partner first and
// receive the final result after. Within each doubling round both partners
// send first when their credits cover the buffer (the credit rule), so a
// round costs one trip; otherwise the pair orders its blocking halves by
// rank, so the lower rank's send always meets an extracting partner.
func (c *Comm) allreduceRecDbl(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, tag int) error {
	size, r := c.size, c.rank
	pof2 := 1
	for pof2*2 <= size {
		pof2 *= 2
	}
	rem := size - pof2
	c.localCopy(p, recvbuf, sendbuf)
	if r >= pof2 {
		// Extra rank: fold into r-pof2, then collect the result from it.
		partner := r - pof2
		if err := c.Send(p, recvbuf, partner, tag); err != nil {
			return err
		}
		_, err := c.Recv(p, recvbuf, partner, tag)
		return err
	}
	tmp := c.tmpPool.Get(len(sendbuf))
	defer c.tmpPool.Put(tmp)
	if r < rem {
		if _, err := c.Recv(p, tmp, r+pof2, tag); err != nil {
			return err
		}
		c.combine(p, op, recvbuf, tmp)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := r ^ mask
		if err := c.sendrecv(p, recvbuf, partner, tmp, partner, tag, r < partner); err != nil {
			return err
		}
		c.combine(p, op, recvbuf, tmp)
	}
	if r < rem {
		return c.Send(p, recvbuf, r+pof2, tag)
	}
	return nil
}

// ringBlock returns the byte bounds of block b (taken mod size) when n
// bytes of elemSize elements are split into size contiguous blocks on
// element boundaries. Blocks may be empty when there are fewer elements
// than ranks.
func ringBlock(b, size, n, elemSize int) (lo, hi int) {
	b = ((b % size) + size) % size
	elems := n / elemSize
	return b * elems / size * elemSize, (b + 1) * elems / size * elemSize
}

// allreduceRing: reduce-scatter around the ring (after size-1 steps rank r
// fully owns block r+1), then a ring allgather of the reduced blocks.
// Moves 2*(P-1)/P of the buffer per rank — the bandwidth-optimal pattern —
// in 1/P-size blocks. A rank whose credits toward its right neighbour cover
// the block sends first (the credit rule); otherwise even ranks send first
// and odd ranks receive first, so the ring always contains an extracting
// rank.
func (c *Comm) allreduceRing(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, tag int) error {
	size, r := c.size, c.rank
	n := len(sendbuf)
	c.localCopy(p, recvbuf, sendbuf)
	right := (r + 1) % size
	left := (r - 1 + size) % size
	tmp := c.tmpPool.Get(n)
	defer c.tmpPool.Put(tmp)
	sendFirst := r%2 == 0
	for step := 0; step < size-1; step++ {
		slo, shi := ringBlock(r-step, size, n, op.ElemSize)
		rlo, rhi := ringBlock(r-step-1, size, n, op.ElemSize)
		if err := c.sendrecv(p, recvbuf[slo:shi], right, tmp[:rhi-rlo], left, tag, sendFirst); err != nil {
			return err
		}
		c.combine(p, op, recvbuf[rlo:rhi], tmp[:rhi-rlo])
	}
	for step := 0; step < size-1; step++ {
		slo, shi := ringBlock(r+1-step, size, n, op.ElemSize)
		rlo, rhi := ringBlock(r-step, size, n, op.ElemSize)
		if err := c.sendrecv(p, recvbuf[slo:shi], right, recvbuf[rlo:rhi], left, tag, sendFirst); err != nil {
			return err
		}
	}
	return nil
}

// --- allgather ---

// allgatherRecDbl: recursive doubling for power-of-two rank counts. At the
// mask step each rank holds mask consecutive chunks starting at
// rank &^ (mask-1) and swaps that run with its partner's: both partners send
// first while the credits cover the run, the lower rank alone above that.
func (c *Comm) allgatherRecDbl(p *sim.Proc, recvbuf []byte, chunk, tag int) error {
	r := c.rank
	for mask := 1; mask < c.size; mask <<= 1 {
		partner := r ^ mask
		myLo := (r &^ (mask - 1)) * chunk
		pLo := (partner &^ (mask - 1)) * chunk
		nb := mask * chunk
		err := c.sendrecv(p, recvbuf[myLo:myLo+nb], partner,
			recvbuf[pLo:pLo+nb], partner, tag, r < partner)
		if err != nil {
			return err
		}
	}
	return nil
}

// allgatherRing: pass chunks around the ring for size-1 steps; step s sends
// the chunk received in step s-1 (step 0 sends our own). The credit rule,
// and parity ordering above it, as in allreduceRing.
func (c *Comm) allgatherRing(p *sim.Proc, recvbuf []byte, chunk, tag int) error {
	size, r := c.size, c.rank
	right := (r + 1) % size
	left := (r - 1 + size) % size
	sendFirst := r%2 == 0
	for step := 0; step < size-1; step++ {
		sb := ((r-step)%size + size) % size
		rb := ((r-step-1)%size + size) % size
		err := c.sendrecv(p, recvbuf[sb*chunk:(sb+1)*chunk], right,
			recvbuf[rb*chunk:(rb+1)*chunk], left, tag, sendFirst)
		if err != nil {
			return err
		}
	}
	return nil
}
