package flowctl

import (
	"testing"
	"testing/quick"
)

func TestWindowShrinksToRing(t *testing.T) {
	m := New(9, 0, 32, 64) // 8 peers, 64 slots -> window 8
	if m.Window() != 8 {
		t.Fatalf("window %d, want 8", m.Window())
	}
}

func TestWindowAtLeastOne(t *testing.T) {
	m := New(100, 0, 32, 10)
	if m.Window() != 1 {
		t.Fatalf("window %d, want 1", m.Window())
	}
}

// TestCreditAmortizationAt64 pins the large-n satellite fix: with a ring
// grown per RingSlotsFor, a 64-node endpoint keeps an effective window of
// MinWindow, so credit returns stay batched — at most one control packet
// per two data packets — instead of the one-per-packet storm the ungrown
// ring produced (window clamped to 128/63 = 2, threshold (2+1)/2 = 1).
func TestCreditAmortizationAt64(t *testing.T) {
	const n, configured = 64, 32
	m := New(n, 0, configured, RingSlotsFor(n, configured))
	if m.Window() != MinWindow {
		t.Fatalf("effective window %d, want the MinWindow floor %d", m.Window(), MinWindow)
	}
	const freed = 100
	returns := 0
	for i := 0; i < freed; i++ {
		if nc, due := m.NoteFreed(5); due {
			returns++
			if nc < 2 {
				t.Fatalf("credit return of %d packets: amortization lost", nc)
			}
		}
	}
	if returns > freed/2 {
		t.Fatalf("%d credit packets for %d data packets: control-traffic storm", returns, freed)
	}
	// And the collapse this replaces, for contrast: the old 128-slot ring.
	old := New(n, 0, configured, 128)
	if old.Window() >= MinWindow {
		t.Fatalf("ungrown ring yields window %d; expected collapse below %d (test premise broken)",
			old.Window(), MinWindow)
	}
}

func TestConsumeExhausts(t *testing.T) {
	m := New(2, 0, 4, 64)
	for i := 0; i < 4; i++ {
		if !m.Consume(1) {
			t.Fatalf("consume %d failed", i)
		}
	}
	if m.Consume(1) {
		t.Fatal("consumed beyond window")
	}
	if m.Outstanding(1) != 4 {
		t.Fatalf("outstanding %d, want 4", m.Outstanding(1))
	}
	m.Refill(1, 2)
	if !m.Consume(1) {
		t.Fatal("consume after refill failed")
	}
}

func TestRefillOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-refill did not panic")
		}
	}()
	m := New(2, 0, 4, 64)
	m.Refill(1, 5)
}

func TestNoteFreedBatchesAtHalfWindow(t *testing.T) {
	m := New(2, 1, 8, 64)
	for i := 0; i < 3; i++ {
		if n, due := m.NoteFreed(0); due {
			t.Fatalf("credit return due after %d freed (%d)", i+1, n)
		}
	}
	n, due := m.NoteFreed(0)
	if !due || n != 4 {
		t.Fatalf("got (%d,%v), want (4,true)", n, due)
	}
	// Counter reset.
	if n, due := m.NoteFreed(0); due {
		t.Fatalf("due again immediately (%d)", n)
	}
}

func TestTakeDirty(t *testing.T) {
	m := New(8, 3, 8, 256)
	if _, _, ok := m.TakeDirty(); ok {
		t.Fatal("take with nothing freed reported a batch")
	}
	// Partial batches toward three peers, dirtied out of order.
	m.NoteFreed(5)
	m.NoteFreed(0)
	m.NoteFreed(0)
	m.NoteFreed(2)
	// Lowest-numbered source first, each with its full partial count.
	want := []struct{ src, n int }{{0, 2}, {2, 1}, {5, 1}}
	for _, w := range want {
		src, n, ok := m.TakeDirty()
		if !ok || src != w.src || n != w.n {
			t.Fatalf("got (%d,%d,%v), want (%d,%d,true)", src, n, ok, w.src, w.n)
		}
	}
	if _, _, ok := m.TakeDirty(); ok {
		t.Fatal("drained manager still reports a batch")
	}
	// A batch emitted by NoteFreed's own threshold leaves a stale dirty
	// entry; TakeDirty must skip it, not double-return the credits.
	for i := 0; i < 4; i++ {
		m.NoteFreed(6)
	}
	if _, _, ok := m.TakeDirty(); ok {
		t.Fatal("threshold-emitted batch returned again by TakeDirty")
	}
}

// Property: under any interleaving of consumes and batched returns, credits
// never go negative and conservation holds: consumed = refilled + held-out.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []bool) bool {
		m := New(2, 0, 8, 64)
		recv := New(2, 1, 8, 64)
		inFlight := 0 // packets sent, not yet freed at receiver
		for _, send := range ops {
			if send {
				if m.Consume(1) {
					inFlight++
				}
			} else if inFlight > 0 {
				inFlight--
				if n, due := recv.NoteFreed(0); due {
					m.Refill(1, n)
				}
			}
			if m.Available(1) < 0 || m.Available(1) > m.Window() {
				return false
			}
			if m.Outstanding(1) < inFlight {
				// Outstanding must cover everything unfreed or unreturned.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
