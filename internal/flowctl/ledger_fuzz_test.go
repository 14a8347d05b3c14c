package flowctl

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// denseManager is the credit ledger as it was before it became sparse: rows
// of length n on every node, credits stored as available. FuzzLedger holds
// Manager to it answer for answer.
type denseManager struct {
	window       int
	avail        []int
	freed        []int
	dirty        []int
	isDirty      []bool
	CreditsSent  int64
	CreditsRecvd int64
}

func newDense(n, self, window, ringSlots int) *denseManager {
	if n > 1 && window*(n-1) > ringSlots {
		window = ringSlots / (n - 1)
	}
	if window < 1 {
		window = 1
	}
	m := &denseManager{window: window, avail: make([]int, n), freed: make([]int, n), isDirty: make([]bool, n)}
	for i := range m.avail {
		if i != self {
			m.avail[i] = window
		}
	}
	return m
}

func (m *denseManager) Available(dst int) int   { return m.avail[dst] }
func (m *denseManager) Outstanding(dst int) int { return m.window - m.avail[dst] }
func (m *denseManager) Dirty() bool             { return len(m.dirty) > 0 }

func (m *denseManager) Consume(dst int) bool {
	if m.avail[dst] <= 0 {
		return false
	}
	m.avail[dst]--
	return true
}

func (m *denseManager) Refill(dst, n int) {
	m.avail[dst] += n
	m.CreditsRecvd += int64(n)
	if m.avail[dst] > m.window {
		panic("dense: credit overflow")
	}
}

func (m *denseManager) NoteFreed(src int) (int, bool) {
	m.freed[src]++
	if m.freed[src] >= (m.window+1)/2 {
		n := m.freed[src]
		m.freed[src] = 0
		m.CreditsSent += int64(n)
		return n, true
	}
	if !m.isDirty[src] {
		m.isDirty[src] = true
		m.dirty = append(m.dirty, src)
	}
	return 0, false
}

func (m *denseManager) TakeDirty() (src, n int, ok bool) {
	for len(m.dirty) > 0 {
		lo := 0
		for i, s := range m.dirty {
			if s < m.dirty[lo] {
				lo = i
			}
		}
		s := m.dirty[lo]
		m.dirty[lo] = m.dirty[len(m.dirty)-1]
		m.dirty = m.dirty[:len(m.dirty)-1]
		m.isDirty[s] = false
		if m.freed[s] > 0 {
			c := m.freed[s]
			m.freed[s] = 0
			m.CreditsSent += int64(c)
			return s, c, true
		}
	}
	return 0, 0, false
}

// A ledger operation is four bytes: its kind, the peer (big-endian, modulo
// the node count) and an argument, which only a refill reads.
const (
	opConsume = iota
	opRefill
	opFreed
	opTake
	opKinds
)

// refillRaw marks a refill argument taken as the count itself (modulo the
// window plus 2, so it may run past the window); without it the count is the
// argument modulo the peer's outstanding credits plus one, a refill the
// plane would let through.
const refillRaw = 0x80

func op(kind, peer int, arg byte) []byte {
	return []byte{byte(kind), byte(peer >> 8), byte(peer), arg}
}

func ops(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func repeat(n int, part []byte) []byte {
	var b []byte
	for range n {
		b = append(b, part...)
	}
	return b
}

// FuzzLedger drives the sparse Manager and the dense ledger it replaced
// through the same operations, on 2 to 300 nodes with configured windows of 1
// to 64 and any ring, and every answer must agree: Window, Available and
// Outstanding toward the touched peer after each step (toward every peer at
// the end), Consume's verdict, NoteFreed's batch, TakeDirty's (src, n, ok),
// Dirty and both credit counters. A refill past the window panics in both.
// The seeds are the cases of flowctl_test.go; tier-1 replays them and the
// corpus in testdata/fuzz.
func FuzzLedger(f *testing.F) {
	f.Add(uint16(9), uint16(0), uint8(32), uint16(64), []byte(nil))   // TestWindowShrinksToRing
	f.Add(uint16(100), uint16(0), uint8(32), uint16(10), []byte(nil)) // TestWindowAtLeastOne
	f.Add(uint16(64), uint16(0), uint8(32), uint16(RingSlotsFor(64, 32)),
		repeat(100, op(opFreed, 5, 0))) // TestCreditAmortizationAt64
	f.Add(uint16(2), uint16(0), uint8(4), uint16(64), ops(
		repeat(5, op(opConsume, 1, 0)), op(opRefill, 1, refillRaw|2), op(opConsume, 1, 0))) // TestConsumeExhausts
	for _, window := range []int{1, MinWindow, 16} { // TestRefillOverflowPanics
		for out := 0; out <= window; out++ {
			f.Add(uint16(2), uint16(0), uint8(window), uint16(64), ops(
				repeat(out, op(opConsume, 1, 0)), op(opRefill, 1, byte(out)), op(opRefill, 1, refillRaw|1)))
		}
	}
	f.Add(uint16(2), uint16(1), uint8(8), uint16(64), repeat(5, op(opFreed, 0, 0))) // TestNoteFreedBatchesAtHalfWindow
	f.Add(uint16(8), uint16(3), uint8(8), uint16(256), ops(                         // TestTakeDirty
		op(opTake, 0, 0), op(opFreed, 5, 0), op(opFreed, 0, 0), op(opFreed, 0, 0), op(opFreed, 2, 0),
		repeat(4, op(opTake, 0, 0)), repeat(4, op(opFreed, 6, 0)), op(opTake, 0, 0)))
	f.Add(uint16(2), uint16(0), uint8(8), uint16(64), ops( // TestPropertyConservation, one schedule
		repeat(9, op(opConsume, 1, 0)), repeat(4, op(opFreed, 0, 0)), op(opRefill, 1, 4), op(opConsume, 1, 0)))
	f.Add(uint16(300), uint16(299), uint8(64), uint16(0xffff), ops( // far peers and self
		op(opConsume, 299, 0), op(opRefill, 299, refillRaw|1), op(opFreed, 256, 0), op(opConsume, 255, 0),
		op(opFreed, 1, 0), op(opTake, 0, 0), op(opTake, 0, 0)))
	var many []byte // enough peers to grow the table past its first 8 slots thrice
	for p := range 48 {
		many = ops(many, op(opConsume, 5*p+1, 0), op(opFreed, 7*p+3, 0))
	}
	f.Add(uint16(256), uint16(0), uint8(16), uint16(0xffff), ops(many, repeat(50, op(opTake, 0, 0))))

	f.Fuzz(func(t *testing.T, nodes, self uint16, window uint8, ring uint16, script []byte) {
		n := int(nodes) % 301
		if n < 2 {
			n += 2
		}
		w := max(int(window)%65, 1)
		me := int(self) % n
		sparse, dense := New(n, me, w, int(ring)), newDense(n, me, w, int(ring))
		if sparse.Window() != dense.window || sparse.Nodes() != n {
			t.Fatalf("window %d over %d nodes, want %d over %d", sparse.Window(), sparse.Nodes(), dense.window, n)
		}
		agree := func(step, peer int) {
			t.Helper()
			if a, b := sparse.Available(peer), dense.Available(peer); a != b {
				t.Fatalf("step %d: Available(%d) = %d, dense %d", step, peer, a, b)
			}
			if a, b := sparse.Outstanding(peer), dense.Outstanding(peer); a != b {
				t.Fatalf("step %d: Outstanding(%d) = %d, dense %d", step, peer, a, b)
			}
			if sparse.Dirty() != dense.Dirty() || sparse.CreditsSent != dense.CreditsSent || sparse.CreditsRecvd != dense.CreditsRecvd {
				t.Fatalf("step %d: dirty %v, sent %d, received %d; dense %v, %d, %d", step,
					sparse.Dirty(), sparse.CreditsSent, sparse.CreditsRecvd, dense.Dirty(), dense.CreditsSent, dense.CreditsRecvd)
			}
		}
		take := func(step int) {
			t.Helper()
			s1, n1, ok1 := sparse.TakeDirty()
			s2, n2, ok2 := dense.TakeDirty()
			if s1 != s2 || n1 != n2 || ok1 != ok2 {
				t.Fatalf("step %d: TakeDirty = (%d, %d, %v), dense (%d, %d, %v)", step, s1, n1, ok1, s2, n2, ok2)
			}
		}
		for step := 0; step+4 <= len(script); step += 4 {
			kind, peer, arg := int(script[step])%opKinds, (int(script[step+1])<<8|int(script[step+2]))%n, script[step+3]
			switch kind {
			case opConsume:
				if a, b := sparse.Consume(peer), dense.Consume(peer); a != b {
					t.Fatalf("step %d: Consume(%d) = %v, dense %v", step, peer, a, b)
				}
			case opRefill:
				c := int(arg&^refillRaw) % (dense.Outstanding(peer) + 1)
				if arg&refillRaw != 0 {
					c = int(arg&^refillRaw) % (w + 2)
				}
				p1, p2 := panics(func() { sparse.Refill(peer, c) }), panics(func() { dense.Refill(peer, c) })
				if p1 != p2 {
					t.Fatalf("step %d: Refill(%d, %d) panicked %v, dense %v", step, peer, c, p1, p2)
				}
				if p1 {
					return
				}
			case opFreed:
				n1, due1 := sparse.NoteFreed(peer)
				n2, due2 := dense.NoteFreed(peer)
				if n1 != n2 || due1 != due2 {
					t.Fatalf("step %d: NoteFreed(%d) = (%d, %v), dense (%d, %v)", step, peer, n1, due1, n2, due2)
				}
			case opTake:
				take(step)
			}
			agree(step, peer)
		}
		for peer := range n {
			agree(len(script), peer)
		}
		for dense.Dirty() {
			take(len(script))
		}
		take(len(script))
		agree(len(script), me)
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestLedgerZeroAlloc: once a peer has its entry, nothing the plane does per
// packet allocates, at any cluster size, and asking about a peer never talked
// to adds nothing. creditsCover (mpifm) and svcload's credit gate call
// Available per message.
func TestLedgerZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const n, rounds = 4096, 200
	m := New(n, 0, 16, RingSlotsFor(n, 16))
	peers := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	work := func() {
		for range rounds {
			for _, p := range peers {
				m.Consume(p)
				m.Refill(p, 1)
				m.NoteFreed(p)
				_ = m.Available(p) + m.Available(p+1) + m.Outstanding(p+3)
			}
			for m.Dirty() {
				m.TakeDirty()
			}
		}
	}
	work()
	if allocs := alloctest.MinMallocs(work); allocs > alloctest.AllowStray {
		t.Fatalf("%d rounds over %d peers allocated %d times; a warm ledger must allocate nothing", rounds, len(peers), allocs)
	}
	if m.peers.used != 1+len(peers) {
		t.Fatalf("the ledger holds %d entries; want self and the %d peers it was used with", m.peers.used, len(peers))
	}
}
