package sim

import "fmt"

// Portal is the one legal way simulation state crosses LPs: a unidirectional,
// lookahead-bearing message channel from a source LP to a destination LP.
//
// During a window, the source LP posts (timestamp, value) pairs; the engine
// flushes them into the destination kernel's event heap at the next barrier.
// Every post must be stamped at least `lookahead` past the sender's clock —
// that bound is what makes the engine's window W = minNext + minLookahead
// safe: a message sent during a window can only arrive at or after W, never
// inside it.
//
// Ordering is canonical: per portal, posts are flushed in send order (send
// times are monotone per portal since one link's transmitter serializes
// them); across portals, the engine flushes in portal registration order,
// which is fixed by fabric construction. The destination kernel then assigns
// its own (t, seq) order — so the merged event order is a pure function of
// the model, not of goroutine scheduling.
type Portal[T any] struct {
	name    string
	src     *LP
	dst     *LP
	la      Time
	deliver func(t Time, v T)
	staged  []portalItem[T]
}

type portalItem[T any] struct {
	t Time
	v T
}

// NewPortal registers a portal from src to dst with the given lookahead
// (>= 1ns). deliver runs in the destination kernel's driver context at the
// posted timestamp.
func NewPortal[T any](name string, src, dst *LP, lookahead Time, deliver func(t Time, v T)) *Portal[T] {
	if src == nil || dst == nil || src.eng == nil || src.eng != dst.eng {
		panic("sim: portal endpoints must be LPs of one engine")
	}
	if src == dst {
		panic(fmt.Sprintf("sim: portal %q connects an LP to itself", name))
	}
	pt := &Portal[T]{name: name, src: src, dst: dst, la: lookahead, deliver: deliver}
	src.eng.addPortal(pt)
	return pt
}

// Lookahead reports the portal's lookahead.
func (pt *Portal[T]) Lookahead() Time { return pt.la }

// PostAt stages v for delivery in the destination LP at absolute time t.
// Must be called from within the source LP's window (its Procs or driver
// events). t must carry the portal's lookahead past the source clock; the
// panic otherwise is a model bug — a cross-LP interaction faster than the
// physical link latency the partition was derived from.
func (pt *Portal[T]) PostAt(t Time, v T) {
	if t < pt.src.K.Now()+pt.la {
		panic(fmt.Sprintf("sim: portal %q: post at %v violates lookahead %v (src clock %v)",
			pt.name, t, pt.la, pt.src.K.Now()))
	}
	pt.staged = append(pt.staged, portalItem[T]{t: t, v: v})
}

// Post stages v for delivery exactly one lookahead past the calling Proc's
// clock: the common case where the lookahead IS the link's propagation
// delay.
func (pt *Portal[T]) Post(p *Proc, v T) {
	pt.PostAt(p.Now()+pt.la, v)
}

// flushStaged moves staged posts into the destination kernel's event heap.
// Runs on the engine goroutine at the window barrier.
func (pt *Portal[T]) flushStaged() {
	for _, it := range pt.staged {
		it := it
		pt.dst.K.At(it.t, func() { pt.deliver(it.t, it.v) })
	}
	pt.staged = pt.staged[:0]
}

func (pt *Portal[T]) lookahead() Time { return pt.la }
