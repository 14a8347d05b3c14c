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
// Ownership rules (enforced by the poison mode, tested under -race):
//
//   - The sender owns a frame from Get until it hands the packet to the NIC.
//   - The fabric owns it in flight; links release frames they drop.
//   - The receiver owns it from ring removal until Release. Handlers may
//     read payload only through their stream; any alias retained past the
//     handler's return is read-after-recycle, which the poison mode makes
//     loudly visible by overwriting released frames with bufpool.PoisonByte.
//
// Frame pools and the upper layers' byte pools (bufpool.Pool) share one
// counter type, PoolStats (bufpool.Stats), and one poison byte. A frame
// pool's poison mode is set once, by its endpoint core, before traffic
// starts.
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
type FramePool struct {
	frameCap int // backing-array size of every frame
	max      int // free-list bound
	poison   bool
	free     []*Packet
	stats    PoolStats
}

// NewFramePool creates a pool of frames with frameCap-byte backing arrays.
// max bounds the free list (0 means DefaultPoolCap); frames released beyond
// the bound are dropped for the GC, so a burst can grow the working set but
// cannot pin it forever.
func NewFramePool(frameCap, max int) *FramePool {
	if frameCap <= 0 {
		panic("netsim: frame pool needs a positive frame capacity")
	}
	if max <= 0 {
		max = DefaultPoolCap
	}
	return &FramePool{frameCap: frameCap, max: max}
}

// SetPoison switches poison-on-release debugging on or off: released frames
// are overwritten with bufpool.PoisonByte.
func (fp *FramePool) SetPoison(on bool) { fp.poison = on }

// Stats returns a copy of the pool counters.
func (fp *FramePool) Stats() PoolStats {
	s := fp.stats
	s.Free = len(fp.free)
	return s
}

// Get returns a packet whose Payload has length n (at most the pool's frame
// capacity), drawing from the free list when possible. The caller owns the
// frame until it is injected; the eventual consumer must Release it.
func (fp *FramePool) Get(n int) *Packet {
	if n > fp.frameCap {
		panic("netsim: frame request exceeds pool frame capacity")
	}
	fp.stats.Gets++
	var pkt *Packet
	if last := len(fp.free) - 1; last >= 0 {
		pkt = fp.free[last]
		fp.free[last] = nil
		fp.free = fp.free[:last]
	} else {
		fp.stats.Allocs++
		pkt = &Packet{pool: fp, backing: make([]byte, fp.frameCap)}
	}
	pkt.Payload = pkt.backing[:n]
	pkt.Route = nil
	pkt.Ctrl = false
	pkt.Corrupt = false
	return pkt
}

// put returns a frame to the free list (Packet.Release is the public path).
func (fp *FramePool) put(pkt *Packet) {
	fp.stats.Releases++
	if fp.poison {
		for i := range pkt.backing {
			pkt.backing[i] = bufpool.PoisonByte
		}
	}
	pkt.Payload = nil
	pkt.Route = nil
	if len(fp.free) >= fp.max {
		fp.stats.Dropped++
		return
	}
	fp.free = append(fp.free, pkt)
	if d := len(fp.free); d > fp.stats.HWM {
		fp.stats.HWM = d
	}
}

// Release returns the packet's frame to its owning pool. Packets built
// outside any pool (tests) release as a no-op, so consumers can release
// unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}
