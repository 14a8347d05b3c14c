package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// The wait slot is one interface value: a Proc grows by 16 bytes for it and
// by nothing else.
func TestProcSize(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 112 {
		t.Fatalf("Proc is %d bytes, want at most 112", n)
	}
}

// cycle finds the cycle a wait-for graph holds, whichever edges lead into it
// from nodes on no cycle, and nothing in a graph without one.
func TestHangCycle(t *testing.T) {
	for _, c := range []struct {
		edges map[int][]int
		want  []int
	}{
		{map[int][]int{0: {1}, 1: {2}, 2: {0}}, []int{0, 1, 2, 0}},
		{map[int][]int{0: {1, 5}, 1: {2}, 2: nil, 5: {6}, 6: {5, 9}}, []int{5, 6, 5}},
		{map[int][]int{3: {1}, 1: {3}, 0: {3}}, []int{3, 1, 3}},
		{map[int][]int{0: {1}, 1: {2}, 2: nil}, nil},
		{map[int][]int{}, nil},
	} {
		if got := cycle(c.edges); !slices.Equal(got, c.want) {
			t.Errorf("cycle = %v, want %v", got, c.want)
		}
	}
}
