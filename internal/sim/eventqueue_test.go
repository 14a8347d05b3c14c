package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
)

// FuzzEventQueue holds the radix queue to a sorted reference under the only
// order of calls the kernel makes: monotone pushes, each at or after the
// time of the last event popped, with seq growing by one per push. Each
// input byte is an operation:
//
//	0x00-0x3f  push at now (a tie at one instant, a zero delay)
//	0x40-0x7f  push at now + the low six bits (a short delay)
//	0x80-0xbf  push at now + 2^(low six bits % 63), up to 2^62 (a jump)
//	0xc0-0xef  pop
//	0xf0-0xff  drain: pop until empty
//
// where now is the time of the last event popped, and a push that would
// pass the greatest Time is held at it. Every pop must take the reference's
// least (t, seq); after every call min and len must agree with the
// reference, last must be now, and every pending event must wait in bucket
// bits.Len64(t^last). The seed corpus (testdata/fuzz/FuzzEventQueue) has
// ties, short delays, jumps to the greatest Time, drains with refills, and a
// deep mix.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 1<<12)] // len and the reference are linear
		var q eventQueue
		var ref []event
		now, seq := Time(0), uint64(0)
		check := func(op int) {
			t.Helper()
			if n := q.len(); n != len(ref) {
				t.Fatalf("op %d: len %d, reference %d", op, n, len(ref))
			}
			mt, ms, ok := q.min()
			if ok != (len(ref) > 0) || ok && (mt != ref[0].t || ms != ref[0].seq) {
				t.Fatalf("op %d: min (%v, %d, %v), reference %v", op, mt, ms, ok, ref[:min(len(ref), 1)])
			}
			for k := range q.b {
				for i := q.b[k].head; q.full&(1<<k) != 0; i = q.nodes[i].next {
					if at := q.nodes[i].t; bits.Len64(uint64(at^q.last)) != k || q.last != now {
						t.Fatalf("op %d: event at %v in bucket %d, last %v, now %v", op, at, k, q.last, now)
					}
					if i == q.b[k].tail {
						break
					}
				}
			}
		}
		pop := func(op int) {
			t.Helper()
			if len(ref) == 0 {
				return
			}
			want := ref[0]
			ref = ref[1:]
			if _, gen := q.pop(); gen != want.seq {
				t.Fatalf("op %d: popped seq %d, reference (%v, %d)", op, gen, want.t, want.seq)
			}
			now = want.t
			check(op)
		}
		for op, b := range ops {
			switch {
			case b < 0xc0:
				var d Time
				switch v := Time(b & 0x3f); b >> 6 {
				case 1:
					d = v
				case 2:
					d = 1 << (v % 63)
				}
				at := now + min(d, Quiet-now)
				e := event{t: at, seq: seq, gen: seq} // gen names the event
				seq++
				q.push(e)
				i, _ := slices.BinarySearchFunc(ref, e, func(a, b event) int {
					return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
				})
				ref = slices.Insert(ref, i, e)
				check(op)
			case b < 0xf0:
				pop(op)
			default:
				for len(ref) > 0 {
					pop(op)
				}
			}
		}
	})
}
