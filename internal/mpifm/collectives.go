// Collective operations layered on the point-to-point primitives: the
// workload class that dominates real MPI applications on machines of the
// CP-PACS class. Every collective is built from Send/Irecv/Wait, so the
// per-message copy costs of the underlying FM binding (assembly copies and
// pool traffic on FM 1.x, gather/scatter and paced extraction on FM 2.x)
// compound across the whole communication pattern — extending the
// layering-efficiency story of Figures 4 and 6 from a single stream to
// trees, rings, and all-to-all exchanges.
//
// Deadlock freedom. FM's credit flow control means a blocking Send can
// stall until the destination extracts, and a stalled sender does not
// extract — so a cycle of ranks all blocked in Send would deadlock once
// messages exceed the credit window. Every algorithm here is therefore
// ordered so that in any chain of blocked senders, some destination is
// waiting in a receive (and thus extracting): data flows along trees, rings
// alternate send/receive order by rank parity, and pairwise exchanges order
// by rank. Extraction drains packets for *any* receive (unmatched messages
// take the unexpected pool), so one extracting rank unblocks its sender, and
// the chain unwinds.
//
// The credit rule. An exchange leg (sendrecv) skips that order and sends
// first when the credits it holds toward its destination already cover every
// packet of the message, or the destination is itself. Such a send cannot
// stall, so it never joins a chain of blocked senders, and below the credit
// window both partners of an exchange send at once: a round costs one trip,
// as MPICH's Sendrecv does over FM's eager send (Thakur, Rabenseifner and
// Gropp, "Optimization of Collective Communication Operations in MPICH",
// IJHPCA 2005). A send the credits do not cover keeps the order above.
//
// Like MPI, collectives must be called by every rank of the communicator in
// the same order; matching is isolated from point-to-point traffic by a
// reserved tag region.
package mpifm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
)

// CollectiveAlgo selects the algorithm family a Comm uses for its
// collectives. The variants differ in how many messages cross the wire and
// how large they are, so the FM1-vs-FM2 interface cost (per-message copies
// vs per-byte bandwidth) trades off differently for each.
type CollectiveAlgo int

const (
	// AlgoAuto picks per operation: binomial trees for rooted collectives,
	// recursive doubling (power-of-two ranks) or ring otherwise.
	AlgoAuto CollectiveAlgo = iota
	// AlgoFlat is the naive linear algorithm: the root talks to every rank
	// directly. O(P) messages through one node; fewest total messages.
	AlgoFlat
	// AlgoBinomial uses a binomial tree for Bcast and Reduce: O(log P)
	// rounds, full-size messages.
	AlgoBinomial
	// AlgoRing pipelines blocks around a ring (Allgather, Allreduce):
	// O(P) rounds of 1/P-size blocks, best for large payloads.
	AlgoRing
	// AlgoRecursiveDoubling exchanges with partner rank^2^k (Allgather,
	// Allreduce): O(log P) rounds of growing messages, best for latency.
	AlgoRecursiveDoubling
)

// String names the algorithm for tables and errors.
func (a CollectiveAlgo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoFlat:
		return "flat"
	case AlgoBinomial:
		return "binomial"
	case AlgoRing:
		return "ring"
	case AlgoRecursiveDoubling:
		return "recdbl"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// SetCollectiveAlgo selects the algorithm family for subsequent collective
// calls on this rank. All ranks must select the same algorithm.
func (c *Comm) SetCollectiveAlgo(a CollectiveAlgo) { c.collAlgo = a }

// CollectiveAlgo reports the currently selected algorithm family.
func (c *Comm) CollectiveAlgo() CollectiveAlgo { return c.collAlgo }

// collTagBase reserves a tag region for collective traffic, above the
// barrier region at 1<<20. Each collective call consumes one tag, so
// back-to-back collectives can never cross-match.
const collTagBase = 1 << 21

func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase + int(c.collSeq&0xfffff)
}

// ReduceOp combines two equally-sized buffers element-wise:
// inout = inout op in. ElemSize is the element width in bytes; reduction
// buffers must be a multiple of it, and the blocked algorithms (ring
// Allreduce) split only on element boundaries.
type ReduceOp struct {
	Name     string
	ElemSize int
	Combine  func(inout, in []byte)
}

// OpSumU32 sums little-endian uint32 elements.
var OpSumU32 = ReduceOp{
	Name:     "sum_u32",
	ElemSize: 4,
	Combine: func(inout, in []byte) {
		for i := 0; i+4 <= len(inout); i += 4 {
			v := binary.LittleEndian.Uint32(inout[i:]) + binary.LittleEndian.Uint32(in[i:])
			binary.LittleEndian.PutUint32(inout[i:], v)
		}
	},
}

// OpMaxU32 takes the element-wise maximum of little-endian uint32s.
var OpMaxU32 = ReduceOp{
	Name:     "max_u32",
	ElemSize: 4,
	Combine: func(inout, in []byte) {
		for i := 0; i+4 <= len(inout); i += 4 {
			a := binary.LittleEndian.Uint32(inout[i:])
			if b := binary.LittleEndian.Uint32(in[i:]); b > a {
				binary.LittleEndian.PutUint32(inout[i:], b)
			}
		}
	},
}

// OpXor xors bytes (order-insensitive; handy for checksum-style tests).
var OpXor = ReduceOp{
	Name:     "xor",
	ElemSize: 1,
	Combine: func(inout, in []byte) {
		for i := range inout {
			inout[i] ^= in[i]
		}
	},
}

// OpSumF64 sums little-endian float64 elements. Tree and doubling
// algorithms associate the sum differently per rank, so results may differ
// in the last bits across ranks and algorithms, as in any real MPI.
var OpSumF64 = ReduceOp{
	Name:     "sum_f64",
	ElemSize: 8,
	Combine: func(inout, in []byte) {
		for i := 0; i+8 <= len(inout); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(inout[i:])) +
				math.Float64frombits(binary.LittleEndian.Uint64(in[i:]))
			binary.LittleEndian.PutUint64(inout[i:], math.Float64bits(v))
		}
	},
}

// checkRoot validates a root rank argument.
func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpifm: bad root %d for size %d", root, c.size)
	}
	return nil
}

// checkReduceArgs validates reduction buffers.
func checkReduceArgs(sendbuf, recvbuf []byte, op ReduceOp, needRecv bool) error {
	if op.ElemSize <= 0 || op.Combine == nil {
		return fmt.Errorf("mpifm: malformed reduce op %q", op.Name)
	}
	if len(sendbuf)%op.ElemSize != 0 {
		return fmt.Errorf("mpifm: reduce buffer of %d bytes not a multiple of %q element size %d",
			len(sendbuf), op.Name, op.ElemSize)
	}
	if needRecv && len(recvbuf) != len(sendbuf) {
		return fmt.Errorf("mpifm: reduce recvbuf %d bytes, want %d", len(recvbuf), len(sendbuf))
	}
	return nil
}

// localCopy charges the host for a same-rank data movement (the self
// "message" of rooted and all-to-all collectives). Transports also support
// true loopback self-sends, so this is an optimization — one memcpy instead
// of a full send/receive pair through the matching machinery — not a
// requirement.
func (c *Comm) localCopy(p *sim.Proc, dst, src []byte) {
	n := copy(dst, src)
	if n > 0 {
		c.host.Memcpy(p, n)
	}
}

// combine applies op and charges the host for the element-wise pass (one
// read-modify-write sweep, costed like a copy of the same length).
func (c *Comm) combine(p *sim.Proc, op ReduceOp, inout, in []byte) {
	op.Combine(inout, in)
	if len(inout) > 0 {
		c.host.Memcpy(p, len(inout))
	}
}

// sendrecv runs one combined send+receive leg of a collective. The receive
// is posted before anything blocks so arriving data takes the direct path.
// The send goes first when it cannot stall (creditsCover), so both partners
// of an exchange send at once and a round costs one trip, as MPICH's
// Sendrecv does over FM's eager send. Otherwise sendFirst chooses which
// blocking half runs first: algorithms pick it so that every cycle of
// communicating ranks contains at least one rank that receives (extracts)
// first, which keeps transfers above the credit window deadlock-free. The
// receive runs on a recycled record, as Recv's does; a failed send
// withdraws it (putReq).
func (c *Comm) sendrecv(p *sim.Proc, sendBuf []byte, dst int, recvBuf []byte, src, tag int, sendFirst bool) error {
	req := c.getReq()
	c.post(p, req, recvBuf, src, tag)
	defer c.putReq(req)
	if sendFirst || c.creditsCover(dst, len(sendBuf)) {
		if err := c.Send(p, sendBuf, dst, tag); err != nil {
			return err
		}
		c.Wait(p, req)
		return nil
	}
	c.Wait(p, req)
	return c.Send(p, sendBuf, dst, tag)
}

// creditsCover reports whether an n-byte payload to dst can be sent without
// stalling on flow control: it is a loopback self-send, or the credits in
// hand toward dst already cover every packet of the message
// (flowctl.EndpointCore.Packets). Such a send never waits on dst's
// extraction, so it may skip the parity order without closing a cycle of
// blocked senders.
func (c *Comm) creditsCover(dst, n int) bool {
	if dst == c.rank {
		return true
	}
	core := c.t.Core()
	return core.Packets(HeaderSize+n) <= core.FlowControl().Available(dst)
}

// Bcast broadcasts buf from root to every rank. On non-root ranks buf is
// overwritten with root's data.
func (c *Comm) Bcast(p *sim.Proc, buf []byte, root int) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	tag := c.nextCollTag()
	if c.size == 1 {
		return nil
	}
	switch c.collAlgo {
	case AlgoFlat:
		return c.bcastFlat(p, buf, root, tag)
	default:
		return c.bcastBinomial(p, buf, root, tag)
	}
}

// Reduce combines sendbuf across all ranks with op, leaving the result in
// recvbuf at root. recvbuf is ignored on non-root ranks (nil is fine).
func (c *Comm) Reduce(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp, root int) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if err := checkReduceArgs(sendbuf, recvbuf, op, c.rank == root); err != nil {
		return err
	}
	tag := c.nextCollTag()
	if c.size == 1 {
		c.localCopy(p, recvbuf, sendbuf)
		return nil
	}
	switch c.collAlgo {
	case AlgoFlat:
		return c.reduceFlat(p, sendbuf, recvbuf, op, root, tag)
	default:
		return c.reduceBinomial(p, sendbuf, recvbuf, op, root, tag)
	}
}

// Allreduce combines sendbuf across all ranks with op, leaving the result
// in every rank's recvbuf.
func (c *Comm) Allreduce(p *sim.Proc, sendbuf, recvbuf []byte, op ReduceOp) error {
	if err := checkReduceArgs(sendbuf, recvbuf, op, true); err != nil {
		return err
	}
	tag := c.nextCollTag()
	if c.size == 1 {
		c.localCopy(p, recvbuf, sendbuf)
		return nil
	}
	switch c.collAlgo {
	case AlgoRing:
		return c.allreduceRing(p, sendbuf, recvbuf, op, tag)
	case AlgoFlat, AlgoBinomial:
		// Reduce to rank 0 then broadcast, both with the selected family.
		return c.reduceToThenBcast(p, sendbuf, recvbuf, op, tag)
	default: // AlgoAuto, AlgoRecursiveDoubling
		return c.allreduceRecDbl(p, sendbuf, recvbuf, op, tag)
	}
}

// Scatter distributes equal chunks of root's sendbuf: rank i receives chunk
// i into recvbuf. At root, len(sendbuf) must be Size()*len(recvbuf);
// sendbuf is ignored elsewhere.
func (c *Comm) Scatter(p *sim.Proc, sendbuf, recvbuf []byte, root int) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	chunk := len(recvbuf)
	if c.rank == root && len(sendbuf) != c.size*chunk {
		return fmt.Errorf("mpifm: scatter sendbuf %d bytes, want %d*%d", len(sendbuf), c.size, chunk)
	}
	tag := c.nextCollTag()
	if c.rank != root {
		_, err := c.Recv(p, recvbuf, root, tag)
		return err
	}
	// Flat: each destination is already waiting in its Recv, so sequential
	// sends never cycle. (A binomial scatter moves the same bytes through
	// O(log P) rounds but needs staging copies at interior nodes, which is
	// exactly the copy tax this library exists to measure — flat keeps the
	// root-side cost story clean.)
	for dst := 0; dst < c.size; dst++ {
		piece := sendbuf[dst*chunk : (dst+1)*chunk]
		if dst == root {
			c.localCopy(p, recvbuf, piece)
			continue
		}
		if err := c.Send(p, piece, dst, tag); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects every rank's sendbuf into root's recvbuf, rank i's
// contribution at offset i*len(sendbuf). At root, len(recvbuf) must be
// Size()*len(sendbuf); recvbuf is ignored elsewhere.
func (c *Comm) Gather(p *sim.Proc, sendbuf, recvbuf []byte, root int) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	chunk := len(sendbuf)
	if c.rank == root && len(recvbuf) != c.size*chunk {
		return fmt.Errorf("mpifm: gather recvbuf %d bytes, want %d*%d", len(recvbuf), c.size, chunk)
	}
	tag := c.nextCollTag()
	if c.rank != root {
		return c.Send(p, sendbuf, root, tag)
	}
	// Pre-post every receive so arrivals take the direct path, then drain.
	reqs := c.gatherReqs[:0]
	for src := 0; src < c.size; src++ {
		if src == root {
			c.localCopy(p, recvbuf[src*chunk:(src+1)*chunk], sendbuf)
			continue
		}
		req := c.getReq()
		c.post(p, req, recvbuf[src*chunk:(src+1)*chunk], src, tag)
		reqs = append(reqs, req)
	}
	c.Waitall(p, reqs)
	for _, req := range reqs {
		c.putReq(req)
	}
	c.gatherReqs = reqs
	return nil
}

// Allgather collects every rank's sendbuf into every rank's recvbuf, rank
// i's contribution at offset i*len(sendbuf). len(recvbuf) must be
// Size()*len(sendbuf) on every rank. AlgoRecursiveDoubling requires a
// power-of-two rank count; other counts fall back to the ring, as MPI
// implementations treat algorithm selection as a hint.
func (c *Comm) Allgather(p *sim.Proc, sendbuf, recvbuf []byte) error {
	chunk := len(sendbuf)
	if len(recvbuf) != c.size*chunk {
		return fmt.Errorf("mpifm: allgather recvbuf %d bytes, want %d*%d", len(recvbuf), c.size, chunk)
	}
	tag := c.nextCollTag()
	c.localCopy(p, recvbuf[c.rank*chunk:(c.rank+1)*chunk], sendbuf)
	if c.size == 1 {
		return nil
	}
	pow2 := c.size&(c.size-1) == 0
	switch {
	case c.collAlgo == AlgoRecursiveDoubling && pow2,
		c.collAlgo == AlgoAuto && pow2:
		return c.allgatherRecDbl(p, recvbuf, chunk, tag)
	default: // ring handles every size
		return c.allgatherRing(p, recvbuf, chunk, tag)
	}
}

// Alltoall performs the full personalized exchange: rank i's chunk j (at
// offset j*chunk of sendbuf) lands in rank j's recvbuf at offset i*chunk.
// Both buffers must be Size() equal chunks.
func (c *Comm) Alltoall(p *sim.Proc, sendbuf, recvbuf []byte) error {
	if len(sendbuf) != len(recvbuf) {
		return fmt.Errorf("mpifm: alltoall sendbuf %d bytes, recvbuf %d", len(sendbuf), len(recvbuf))
	}
	if len(sendbuf)%c.size != 0 {
		return fmt.Errorf("mpifm: alltoall buffer of %d bytes not divisible by %d ranks",
			len(sendbuf), c.size)
	}
	tag := c.nextCollTag()
	chunk := len(sendbuf) / c.size
	r := c.rank
	c.localCopy(p, recvbuf[r*chunk:(r+1)*chunk], sendbuf[r*chunk:(r+1)*chunk])
	// Shift algorithm: in step s, send to rank+s and receive from rank-s.
	// A step whose chunk the credits toward rank+s cover sends first (the
	// credit rule); otherwise the rank whose destination wraps past zero
	// receives first, so every cycle of the shift permutation contains an
	// extracting rank.
	for s := 1; s < c.size; s++ {
		dst := (r + s) % c.size
		src := (r - s + c.size) % c.size
		err := c.sendrecv(p,
			sendbuf[dst*chunk:(dst+1)*chunk], dst,
			recvbuf[src*chunk:(src+1)*chunk], src,
			tag, r < dst)
		if err != nil {
			return err
		}
	}
	return nil
}
