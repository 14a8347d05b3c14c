package flowctl

// Peers is an open-addressed table from a node or handler id to V, holding
// entries only for the ids in use. Keyed by node, it is per-peer state kept
// for the peers a node has touched, so that a rank costs what it talks to,
// not the size of its cluster; keyed by HandlerID, it is an engine's handler
// table, whose ids are sparse (xport's slabs are SpaceSize apart). An id with
// no entry reads as V's zero value, which every per-peer user makes the idle
// state. Entries are never removed. A pointer At or Find returns is valid
// until the next At that adds an id.
type Peers[V any] struct {
	slots []peerSlot[V] // a power of two long, at most 3/4 full
	shift uint8         // 32 − log2(len(slots)): Fibonacci hashing keeps the top bits
	used  int
}

type peerSlot[V any] struct {
	key uint32 // id + 1; 0 marks an empty slot
	val V
}

// Find returns id's entry, or nil if id has none.
func (t *Peers[V]) Find(id int) *V {
	if t.used == 0 {
		return nil
	}
	s := &t.slots[t.slot(id)]
	if s.key == 0 {
		return nil
	}
	return &s.val
}

// At returns id's entry, adding a zero one if id has none.
func (t *Peers[V]) At(id int) *V {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.slot(id)]
	if s.key == 0 {
		s.key = uint32(id) + 1
		t.used++
	}
	return &s.val
}

// slot is the index of id's slot, or of the empty slot where it would go.
// Allreduce partners differ in one high bit of the rank, and xport's handler
// ids in the bits above a slab, which a plain mask of the low bits would
// send to one slot; the multiplicative hash spreads them.
func (t *Peers[V]) slot(id int) int {
	key := uint32(id) + 1
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
