package netsim

import (
	"testing"

	"repro/internal/bufpool"
)

// TestPoolCapBounds pins the free-list bound where it is enforced: a burst
// released past max cannot grow the retained pool beyond it, and the
// overflow is counted as dropped for the GC, not kept.
func TestPoolCapBounds(t *testing.T) {
	const max, burst = 4, 10
	fp := NewFramePool(64, max)
	held := make([]*Packet, burst)
	for i := range held {
		held[i] = fp.Get(64)
	}
	for _, pkt := range held {
		pkt.Release()
	}
	st := fp.Stats()
	if st.Free != max || st.HWM != max {
		t.Fatalf("free=%d hwm=%d after releasing %d frames; want both at the cap %d", st.Free, st.HWM, burst, max)
	}
	if st.Releases != burst || st.Dropped != burst-max {
		t.Fatalf("releases=%d dropped=%d; want %d and %d", st.Releases, st.Dropped, burst, burst-max)
	}
	// The frames it kept are the ones the next Gets hand out.
	for i := 0; i < max; i++ {
		fp.Get(64)
	}
	if st := fp.Stats(); st.Allocs != burst || st.Free != 0 {
		t.Fatalf("after draining the free list: allocs=%d free=%d; want %d and 0", st.Allocs, st.Free, burst)
	}
}

// TestSlabbedPoolStatsMatchOneAtATime: carving fresh frames from slabs
// changes what a frame costs the host, not what the pool reports. A scripted
// run of Gets, Releases and bursts released past the bound reads the same
// Stats after every step as a free list that allocates one frame at a time,
// and no two frames held at once share a byte.
func TestSlabbedPoolStatsMatchOneAtATime(t *testing.T) {
	const frameCap, max = 24, 6
	fp := NewFramePool(frameCap, max)
	ref := bufpool.NewRecycler[*Packet](max)
	var held, refHeld []*Packet
	mark := byte(0) // each frame Get fills with its own mark
	for step, op := range []int{+3, -2, +9, -10, +12, -4, +1, -7, +20, -20, +5, -5, +40, -40} {
		for ; op > 0; op-- {
			pkt := fp.Get(frameCap)
			mark++
			for i := range pkt.Payload {
				pkt.Payload[i] = mark
			}
			held = append(held, pkt)
			r, ok := ref.Get()
			if !ok {
				r = &Packet{backing: make([]byte, frameCap)}
			}
			refHeld = append(refHeld, r)
		}
		for ; op < 0; op++ {
			pkt := held[len(held)-1]
			for i, b := range pkt.Payload {
				if b != pkt.Payload[0] {
					t.Fatalf("step %d: a held frame's byte %d reads %#x, its mark is %#x: another frame wrote it", step, i, b, pkt.Payload[0])
				}
			}
			pkt.Release()
			held = held[:len(held)-1]
			r := refHeld[len(refHeld)-1]
			ref.Put(r, r.backing)
			refHeld = refHeld[:len(refHeld)-1]
		}
		if got, want := fp.Stats(), ref.Stats(); got != want {
			t.Fatalf("step %d: slabbed pool reads %+v, one at a time %+v", step, got, want)
		}
	}
}

// TestFrameBackingIsCapped: a frame's payload has the frame capacity as its
// capacity, so an append past it reallocates instead of writing into the
// frame carved after it.
func TestFrameBackingIsCapped(t *testing.T) {
	const frameCap = 16
	fp := NewFramePool(frameCap, 0)
	frames := make([]*Packet, 8) // slabs of 1, 1, 2 and 4 frames
	for i := range frames {
		frames[i] = fp.Get(frameCap)
		for j := range frames[i].Payload {
			frames[i].Payload[j] = byte(i)
		}
	}
	for i, pkt := range frames {
		if c := cap(pkt.Payload); c != frameCap {
			t.Fatalf("frame %d: payload capacity %d, want the frame capacity %d", i, c, frameCap)
		}
		grown := append(pkt.Payload, 0xEE)
		if &grown[0] == &pkt.Payload[0] {
			t.Fatalf("frame %d: an append past the frame capacity stayed in the slab", i)
		}
	}
	for i, pkt := range frames {
		for j, b := range pkt.Payload {
			if b != byte(i) {
				t.Fatalf("frame %d byte %d reads %#x after the appends, want %#x", i, j, b, byte(i))
			}
		}
	}
}

// TestReleasePoisonsItsOwnFrame: a release overwrites its frame's whole
// backing with the poison byte and no byte of its slab-mates.
func TestReleasePoisonsItsOwnFrame(t *testing.T) {
	const frameCap = 16
	fp := NewFramePool(frameCap, 0)
	frames := make([]*Packet, 8)
	mem := make([][]byte, len(frames)) // each frame's whole backing
	for i := range frames {
		frames[i] = fp.Get(4)
		mem[i] = frames[i].Payload[:cap(frames[i].Payload)]
		for j := range mem[i] {
			mem[i][j] = byte(i)
		}
	}
	const victim = 5 // shares its slab with frames 4, 6 and 7
	frames[victim].Release()
	for i, m := range mem {
		want := byte(i)
		if i == victim {
			want = bufpool.PoisonByte
		}
		for j, b := range m {
			if b != want {
				t.Fatalf("after releasing frame %d: frame %d byte %d reads %#x, want %#x", victim, i, j, b, want)
			}
		}
	}
}
