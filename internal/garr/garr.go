// Package garr implements a Global Arrays-style distributed array over the
// shmem layer (paper §4.2 lists Global Arrays among the global-address-
// space interfaces implemented on FM 2.x). A 1-D float64 array is block-
// distributed across ranks; Put/Get address global index ranges and
// are translated into one-sided shmem operations on the owning ranks.
package garr

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bufpool"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Service is the canonical endpoint-service name the Global Arrays layer
// registers under on a shared per-node endpoint. GA traffic is its own
// service — distinct from user-level shmem — so a shared endpoint accounts
// its bandwidth share separately.
const Service = "garr"

// Array is one rank's handle onto a block-distributed global array.
type Array struct {
	node     *shmem.Node
	region   uint32
	size     int // global element count
	ranks    int
	blockLen int // elements per rank (last block may be short)
	local    []byte
	bufs     *bufpool.Pool // per-span marshalling buffers
	// Per-call scratch, kept for its backing array. An Array is driven by
	// one Proc; Put and Get are done with their spans before they return.
	spanBuf []span
}

// Attach binds a global array of size elements across the given number of
// ranks to its own service window on a shared endpoint. The Array owns a
// private shmem.Node inside the space, so GA one-sided traffic rides the
// shared transport as its own accounted service, and registers its local
// block as a shmem region. Every rank must call Attach with identical
// parameters (symmetric creation).
func Attach(sp *xport.HandlerSpace, region uint32, size, ranks int) (*Array, error) {
	if size <= 0 || ranks <= 0 {
		return nil, fmt.Errorf("garr: bad dimensions size=%d ranks=%d", size, ranks)
	}
	blockLen := size/ranks + min(size%ranks, 1) // size+ranks-1 could overflow
	if blockLen > shmem.MaxRegion/8 {
		return nil, fmt.Errorf("garr: a %d-element block per rank; a shmem region addresses at most %d elements", blockLen, shmem.MaxRegion/8)
	}
	node := shmem.Attach(sp)
	lo, hi := bounds(node.Rank(), blockLen, size)
	a := &Array{
		node:     node,
		region:   region,
		size:     size,
		ranks:    ranks,
		blockLen: blockLen,
		local:    make([]byte, (hi-lo)*8),
		bufs:     bufpool.New(0),
	}
	node.Register(region, a.local)
	return a, nil
}

// Node exposes the underlying shmem attachment (passive ranks drive its
// progress; tests assert its stats).
func (a *Array) Node() *shmem.Node { return a.node }

func bounds(rank, blockLen, size int) (lo, hi int) {
	lo = rank * blockLen
	hi = lo + blockLen
	if lo > size {
		lo = size
	}
	if hi > size {
		hi = size
	}
	return lo, hi
}

// Size reports the global element count.
func (a *Array) Size() int { return a.size }

// PoolStats reports the span-marshalling buffer pool's recycling counters.
func (a *Array) PoolStats() bufpool.Stats { return a.bufs.Stats() }

// OwnerOf reports the rank owning global index i.
func (a *Array) OwnerOf(i int) int { return i / a.blockLen }

// LocalBounds reports this rank's [lo, hi) global index range.
func (a *Array) LocalBounds() (lo, hi int) {
	return bounds(a.node.Rank(), a.blockLen, a.size)
}

// Local returns this rank's block as float64s (a live view).
func (a *Array) Local() []float64 {
	out := make([]float64, len(a.local)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(a.local[i*8:]))
	}
	return out
}

// SetLocal overwrites this rank's block.
func (a *Array) SetLocal(vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(a.local[i*8:], math.Float64bits(v))
	}
}

// span is one owner's piece of a global range: (rank, localOff, count).
type span struct {
	rank, off, n int
}

// spans splits [lo, hi) into per-owner spans. The result lives in the
// Array's scratch and is valid until the next spans call.
func (a *Array) spans(lo, hi int) ([]span, error) {
	if lo < 0 || hi > a.size || lo > hi {
		return nil, fmt.Errorf("garr: bad range [%d,%d) of %d", lo, hi, a.size)
	}
	out := a.spanBuf[:0]
	for lo < hi {
		r := a.OwnerOf(lo)
		rLo, rHi := bounds(r, a.blockLen, a.size)
		n := rHi - lo
		if n > hi-lo {
			n = hi - lo
		}
		out = append(out, span{r, lo - rLo, n})
		lo += n
	}
	a.spanBuf = out
	return out, nil
}

// Put writes vals into global indices [lo, lo+len(vals)).
func (a *Array) Put(p *sim.Proc, lo int, vals []float64) error {
	spans, err := a.spans(lo, lo+len(vals))
	if err != nil {
		return err
	}
	v := 0
	for _, s := range spans {
		buf := a.bufs.Get(s.n * 8)
		for i := 0; i < s.n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vals[v+i]))
		}
		if s.rank == a.node.Rank() {
			copy(a.local[s.off*8:], buf)
		} else if err := a.node.Put(p, s.rank, a.region, s.off*8, buf); err != nil {
			a.bufs.Put(buf)
			return err
		}
		// Put gathers the bytes into the transport before returning, so the
		// marshalling buffer recycles immediately.
		a.bufs.Put(buf)
		v += s.n
	}
	a.node.Quiet(p)
	return nil
}

// Get reads global indices [lo, lo+len(out)) into out.
func (a *Array) Get(p *sim.Proc, lo int, out []float64) error {
	spans, err := a.spans(lo, lo+len(out))
	if err != nil {
		return err
	}
	v := 0
	for _, s := range spans {
		buf := a.bufs.Get(s.n * 8)
		if s.rank == a.node.Rank() {
			copy(buf, a.local[s.off*8:s.off*8+s.n*8])
		} else if err := a.node.Get(p, s.rank, a.region, s.off*8, buf); err != nil {
			a.bufs.Put(buf)
			return err
		}
		for i := 0; i < s.n; i++ {
			out[v+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		a.bufs.Put(buf)
		v += s.n
	}
	return nil
}

// Progress services the network on behalf of passive ranks.
func (a *Array) Progress(p *sim.Proc) { a.node.Progress(p) }
