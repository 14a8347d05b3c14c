package bufpool

import (
	"fmt"
	"testing"
)

// TestPoolCapBounds pins the free list's bound: a burst returned past max
// cannot grow what it retains beyond it, and the overflow counts as dropped,
// at an explicit cap (Pool) and at the zero Recycler's DefaultCap.
func TestPoolCapBounds(t *testing.T) {
	const max, burst = 4, 10

	p := New(max)
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

	// The zero Recycler, as every record free list declares it, keeps
	// DefaultCap records and counts the rest dropped.
	var r Recycler[*int]
	for i := 0; i < DefaultCap+burst; i++ {
		r.Put(new(int), nil)
	}
	st = r.Stats()
	if st.Free != DefaultCap || st.Releases != DefaultCap+burst || st.Dropped != burst {
		t.Fatalf("zero Recycler: free=%d releases=%d dropped=%d after %d puts; want %d, %d and %d",
			st.Free, st.Releases, st.Dropped, DefaultCap+burst, DefaultCap, DefaultCap+burst, burst)
	}
	for i := 0; i < DefaultCap; i++ {
		if x, ok := r.Get(); !ok || x == nil {
			t.Fatalf("zero Recycler: Get %d found it empty", i)
		}
	}
	if x, ok := r.Get(); ok || x != nil {
		t.Fatalf("zero Recycler: a record left after draining %d", DefaultCap)
	}
}

// TestPoisonFillsEveryByte holds poison to every byte at lengths around its
// 4 KiB block: a fill that missed a tail would quietly weaken every pool.
func TestPoisonFillsEveryByte(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 10000} {
		b := make([]byte, n+1)
		b[n] = 0x5C // a guard past the slice poison is given
		poison(b[:n])
		for i, v := range b[:n] {
			if v != PoisonByte {
				t.Fatalf("len %d: byte %d is %#x after poison, want %#x", n, i, v, PoisonByte)
			}
		}
		if b[n] != 0x5C {
			t.Fatalf("len %d: poison wrote past the slice", n)
		}
	}
}

// BenchmarkPoison measures the fill at a Sparc frame (140 B), a PPro frame
// (552 B) and one block.
func BenchmarkPoison(b *testing.B) {
	for _, n := range []int{140, 552, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for b.Loop() {
				poison(buf)
			}
		})
	}
}
