package flowctl

// Peers is per-peer state kept only for the peers a node has touched: an
// open-addressed table from node number to V, so that a rank costs what it
// talks to, not the size of its cluster. A node with no entry reads as V's
// zero value, which every user makes the idle state. Entries are never
// removed. A pointer At or Find returns is valid until the next At that adds
// a node.
type Peers[V any] struct {
	slots []peerSlot[V] // a power of two long, at most 3/4 full
	shift uint8         // 32 − log2(len(slots)): Fibonacci hashing keeps the top bits
	used  int
}

type peerSlot[V any] struct {
	key uint32 // node + 1; 0 marks an empty slot
	val V
}

// Find returns node's entry, or nil if node has none.
func (t *Peers[V]) Find(node int) *V {
	if t.used == 0 {
		return nil
	}
	s := &t.slots[t.slot(node)]
	if s.key == 0 {
		return nil
	}
	return &s.val
}

// At returns node's entry, adding a zero one if node has none.
func (t *Peers[V]) At(node int) *V {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.slot(node)]
	if s.key == 0 {
		s.key = uint32(node) + 1
		t.used++
	}
	return &s.val
}

// slot is the index of node's slot, or of the empty slot where it would go.
// Allreduce partners differ in one high bit of the rank, which a plain mask
// of the low bits would send to one slot; the multiplicative hash spreads
// them.
func (t *Peers[V]) slot(node int) int {
	key := uint32(node) + 1
	mask := len(t.slots) - 1
	i := int((key * 0x9e3779b9) >> t.shift)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table, from 8 slots.
func (t *Peers[V]) grow() {
	old := t.slots
	n := max(8, 2*len(old))
	t.slots = make([]peerSlot[V], n)
	t.shift = 32
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.slot(int(s.key-1))] = s
		}
	}
}
