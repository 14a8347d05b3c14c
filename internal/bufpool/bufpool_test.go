package bufpool

import (
	"fmt"
	"testing"
)

// TestPoolCapBounds pins both free lists' bound: a burst returned past max
// cannot grow what they retain beyond it, and the Pool counts the overflow
// as dropped.
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

// TestPoisonFillsEveryByte holds Poison to every byte at lengths around its
// 4 KiB block: a fill that missed a tail would quietly weaken every pool.
func TestPoisonFillsEveryByte(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 10000} {
		b := make([]byte, n+1)
		b[n] = 0x5C // a guard past the slice Poison is given
		Poison(b[:n])
		for i, v := range b[:n] {
			if v != PoisonByte {
				t.Fatalf("len %d: byte %d is %#x after Poison, want %#x", n, i, v, PoisonByte)
			}
		}
		if b[n] != 0x5C {
			t.Fatalf("len %d: Poison wrote past the slice", n)
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
				Poison(buf)
			}
		})
	}
}
