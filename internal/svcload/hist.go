package svcload

import "math/bits"

// Hist is an HDR-style log-bucketed latency histogram over non-negative
// int64 values (virtual nanoseconds). Values below 2*histSubCount are
// recorded exactly; above that, each power-of-two octave is split into
// histSubCount sub-buckets, bounding relative quantile error at
// 1/histSubCount (~3.1%). Buckets are a fixed flat array, so histograms
// merge by element-wise addition — the property that lets per-client
// histograms accumulate independently during a run and fold into one
// service-level distribution afterwards, exactly like HDR histograms do in
// real tail-latency pipelines.
//
// Everything is integer arithmetic over virtual-time values, so quantiles
// are bit-deterministic across runs, engines, and merge orders.
type Hist struct {
	counts [histBuckets]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits sets sub-bucket resolution: 2^5 = 32 sub-buckets per
	// octave.
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: the linear
	// region [0, 2*histSub) plus histSub buckets per remaining octave.
	histBuckets = 2*histSub + (62-histSubBits)*histSub
)

// newHist returns an empty histogram.
func newHist() *Hist { return &Hist{min: -1} }

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	if v < 2*histSub {
		return int(v)
	}
	// k halvings bring v into [histSub, 2*histSub).
	k := bits.Len64(uint64(v)) - (histSubBits + 1)
	return k*histSub + int(v>>uint(k))
}

// histUpper reports the largest value a bucket holds: the value quantiles
// report, so a quantile never understates the latency it summarizes.
func histUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	k := i/histSub - 1
	m := int64(i - k*histSub) // in [histSub, 2*histSub)
	return (m+1)<<uint(k) - 1
}

// Record adds one value. Negative values clamp to zero (virtual-time
// latencies cannot be negative; the clamp keeps a model bug loud in the
// p0 bucket instead of panicking mid-run).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.total++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h (element-wise bucket addition).
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += o.total
	h.sum += o.sum
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count reports recorded values.
func (h *Hist) Count() int64 { return h.total }

// Mean reports the exact arithmetic mean (the sum is tracked exactly).
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min reports the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded value.
func (h *Hist) Max() int64 { return h.max }

// Quantile reports the value at or below which a fraction q of recorded
// values fall, as the containing bucket's upper bound (never understating).
// q outside (0,1] clamps; an empty histogram reports 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the target value, 1-based: ceil(q * total), at least 1.
	rank := int64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max // never report past the observed maximum
			}
			return u
		}
	}
	return h.max
}
