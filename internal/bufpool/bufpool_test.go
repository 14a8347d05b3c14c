package bufpool

import "testing"

// TestPoolCapBounds pins both free lists' bound: a burst returned past max
// cannot grow what they retain beyond it, and the Pool counts the overflow
// as dropped.
func TestPoolCapBounds(t *testing.T) {
	const max, burst = 4, 10

	p := New(max, false)
	bufs := make([][]byte, burst)
	for i := range bufs {
		bufs[i] = p.Get(32)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	st := p.Stats()
	if st.Free != max || st.HWM != max {
		t.Fatalf("Pool: free=%d hwm=%d after returning %d buffers; want both at the cap %d", st.Free, st.HWM, burst, max)
	}
	if st.Releases != burst || st.Dropped != burst-max {
		t.Fatalf("Pool: releases=%d dropped=%d; want %d and %d", st.Releases, st.Dropped, burst, burst-max)
	}

	f := NewFreeList[int](max)
	for i := 0; i < burst; i++ {
		f.Put(new(int))
	}
	if f.Len() != max {
		t.Fatalf("FreeList: holds %d records after %d puts; want the cap %d", f.Len(), burst, max)
	}
	for i := 0; i < max; i++ {
		if f.Get() == nil {
			t.Fatalf("FreeList: Get %d found it empty", i)
		}
	}
	if f.Get() != nil || f.Len() != 0 {
		t.Fatalf("FreeList: %d records left after draining %d", f.Len(), max)
	}
}
