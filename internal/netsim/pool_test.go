package netsim

import "testing"

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
