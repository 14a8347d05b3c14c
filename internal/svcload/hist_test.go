package svcload

import (
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference: the smallest sample such that at least
// ceil(q*n) samples are <= it.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkQuantiles asserts the histogram quantile brackets the exact one from
// below-with-bucket-resolution: hist >= exact (upper bound semantics) and
// hist <= exact * (1 + 2/histSub) + 1 (log-bucket relative error).
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := newHist()
	for _, v := range samples {
		h.Record(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		got, want := h.Quantile(q), exactQuantile(sorted, q)
		if got < want {
			t.Errorf("%s q=%g: hist %d < exact %d (quantile understates)", name, q, got, want)
		}
		ceil := want + want*2/histSub + 1
		if got > ceil {
			t.Errorf("%s q=%g: hist %d > %d (exact %d, resolution exceeded)", name, q, got, ceil, want)
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Errorf("%s: count %d, want %d", name, h.Count(), len(samples))
	}
	if h.Max() != sorted[len(sorted)-1] || h.Min() != sorted[0] {
		t.Errorf("%s: min/max %d/%d, want %d/%d", name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
}

func TestHistQuantilesAcrossDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000

	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63n(5_000_000) // 0..5ms
	}
	checkQuantiles(t, "uniform", uniform)

	exponential := make([]int64, n)
	for i := range exponential {
		exponential[i] = int64(rng.ExpFloat64() * 200_000) // mean 200us
	}
	checkQuantiles(t, "exponential", exponential)

	// Bimodal with a far tail: the shape tail-latency reporting exists for.
	bimodal := make([]int64, n)
	for i := range bimodal {
		if rng.Float64() < 0.99 {
			bimodal[i] = 10_000 + rng.Int63n(5_000)
		} else {
			bimodal[i] = 50_000_000 + rng.Int63n(10_000_000)
		}
	}
	checkQuantiles(t, "bimodal", bimodal)

	constant := make([]int64, 500)
	for i := range constant {
		constant[i] = 17_300
	}
	checkQuantiles(t, "constant", constant)
}

func TestHistSmallValuesExact(t *testing.T) {
	h := newHist()
	for v := int64(0); v < 2*histSub; v++ {
		h.Record(v)
	}
	for v := int64(0); v < 2*histSub; v++ {
		q := (float64(v) + 1) / float64(2*histSub)
		if got := h.Quantile(q); got != v {
			t.Fatalf("linear-region quantile %g = %d, want %d (exact)", q, got, v)
		}
	}
}

func TestHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	whole := newHist()
	parts := []*Hist{newHist(), newHist(), newHist()}
	for i := 0; i < 9999; i++ {
		v := int64(rng.ExpFloat64() * 123_456)
		whole.Record(v)
		parts[i%3].Record(v)
	}
	merged := newHist()
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(newHist()) // empty merge is a no-op
	if merged.Count() != whole.Count() || merged.Mean() != whole.Mean() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merged summary stats differ from single-histogram recording")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%g: merged %d != whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistIndexMonotonic(t *testing.T) {
	// Bucket index and upper bound must be monotone and consistent over the
	// value range, including octave boundaries.
	prev := -1
	for _, v := range []int64{0, 1, histSub, 2*histSub - 1, 2 * histSub, 2*histSub + 1,
		4*histSub - 1, 4 * histSub, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("index not monotone at %d", v)
		}
		if u := histUpper(i); u < v {
			t.Fatalf("upper(%d)=%d < value %d", i, u, v)
		}
		prev = i
	}
	if histIndex(1<<62) >= histBuckets {
		t.Fatal("index out of range for 2^62")
	}
}
