// Frame pooling: the zero-allocation message path. Protocol engines draw
// framed packets from a per-endpoint FramePool, fill header and payload in
// place, and hand the packet to the NIC; ownership then travels with the
// packet through send queue, links, switches, and the receiver's ring, and
// the RECEIVING endpoint returns the frame to its owner's pool (Release)
// once the last byte has been consumed. In steady state every frame on a
// flow is one of a small recirculating set, so the simulator's hot path
// performs no per-packet allocation — mirroring the paper's argument that
// careful buffer management, not raw silicon, is what makes messaging fast.
//
// Ownership rules (checked in every run, tested under -race):
//
//   - The sender owns a frame from Get until it hands the packet to the NIC.
//   - The fabric owns it in flight; links release frames they drop.
//   - The receiver owns it from ring removal until Release. Handlers may
//     read payload only through their stream; any alias retained past the
//     handler's return is read-after-recycle, which every release makes
//     loudly visible by overwriting the frame with bufpool.PoisonByte.
//
// Frame pools and the upper layers' byte pools (bufpool.Pool) run one free
// list, bufpool.Recycler: one bound, one counter type, PoolStats
// (bufpool.Stats), and one poison fill.
//
// A pool makes fresh frames by the slab, each slab as many frames as the
// pool has made so far (at least one), so a pool that made n frames took
// O(log n) mallocs for them, two per slab, and at most half of the frames it
// carved are not yet handed out: a slab is sized from what the pool has
// already needed, never ahead of it. Stats count frames, not slabs: a frame's
// first hand-out is one Alloc. A frame dropped at the free list's bound is
// not freed on its own: it stays pinned by its slab until every frame of
// that slab is unreachable.
package netsim

import "repro/internal/bufpool"

// DefaultPoolCap bounds a FramePool's free list when the caller passes no
// explicit cap: deep enough to cover a full credit window plus both NIC
// queues, small enough that a bursty sender cannot pin unbounded memory.
const DefaultPoolCap = 256

// PoolStats reports a pool's recycling behavior: Gets-Allocs frames were
// recycled, and in steady state Allocs stops growing.
type PoolStats = bufpool.Stats

// FramePool recycles fixed-capacity framed packets (the Packet struct and
// its payload backing array together). Pools are single-threaded under the
// simulation kernel like everything else: no locking.
//
// Fresh frames are carved from slabs (see the package doc); each frame's
// backing is capped at the frame capacity, so an append past it reallocates
// instead of running into the next frame.
type FramePool struct {
	frameCap int // backing-array size of every frame
	free     bufpool.Recycler[*Packet]
	made     int      // frames carved so far
	slab     []Packet // the current slab's frames not yet handed out
	mem      []byte   // and their backing
}

// NewFramePool creates a pool of frames with frameCap-byte backing arrays.
// max bounds the free list (0 means DefaultPoolCap); frames released beyond
// the bound are dropped for the GC, which frees them with the last frame of
// their slab, so a burst can grow the working set but the free list does not
// hold it.
func NewFramePool(frameCap, max int) *FramePool {
	if frameCap <= 0 {
		panic("netsim: frame pool needs a positive frame capacity")
	}
	if max <= 0 {
		max = DefaultPoolCap
	}
	return &FramePool{frameCap: frameCap, free: bufpool.NewRecycler[*Packet](max)}
}

// Stats returns a copy of the pool counters.
func (fp *FramePool) Stats() PoolStats { return fp.free.Stats() }

// Get returns a packet whose Payload has length n (at most the pool's frame
// capacity), drawing from the free list when possible. The caller owns the
// frame until it is injected; the eventual consumer must Release it.
func (fp *FramePool) Get(n int) *Packet {
	if n > fp.frameCap {
		panic("netsim: frame request exceeds pool frame capacity")
	}
	pkt, ok := fp.free.Get()
	if !ok {
		pkt = fp.carve()
	}
	pkt.Payload = pkt.backing[:n]
	pkt.Route = nil
	pkt.Ctrl = false
	pkt.Corrupt = false
	return pkt
}

// carve hands out the next fresh frame of the current slab. A spent slab is
// followed by one of as many frames as the pool has made so far, and at
// least one.
func (fp *FramePool) carve() *Packet {
	c := fp.frameCap
	if len(fp.slab) == 0 {
		n := max(fp.made, 1)
		fp.slab, fp.mem = make([]Packet, n), make([]byte, n*c)
	}
	pkt := &fp.slab[0]
	pkt.pool, pkt.backing = fp, fp.mem[:c:c]
	fp.slab, fp.mem = fp.slab[1:], fp.mem[c:]
	fp.made++
	return pkt
}

// put poisons a frame and returns it to the free list (Packet.Release is the
// public path).
func (fp *FramePool) put(pkt *Packet) {
	pkt.Payload = nil
	pkt.Route = nil
	fp.free.Put(pkt, pkt.backing)
}

// Release returns the packet's frame to its owning pool. Packets built
// outside any pool (tests) release as a no-op, so consumers can release
// unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}
