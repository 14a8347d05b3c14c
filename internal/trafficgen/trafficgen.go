// Package trafficgen generates message-size distributions matching the
// studies the paper's §2.1 cites to motivate FM's short-message focus:
//
//   - Gusella's diskless-workstation Ethernet study: the majority of
//     packets under 576 bytes, 60% of those at 50 bytes or less;
//   - Kay & Pasquale's FDDI measurements: over 99% of TCP packets and 86%
//     of UDP packets under 200 bytes;
//   - the SUNY-Buffalo campus traces: average packet sizes of 300-400 B.
//
// Generators are deterministic given a seed, so workload benches are
// reproducible.
package trafficgen

import (
	"math"
	"math/rand"
)

// Dist is a message-size distribution.
type Dist struct {
	Name    string
	buckets []bucket // CDF over size ranges
}

type bucket struct {
	cum    float64 // cumulative probability
	lo, hi int     // size range, inclusive
}

// Sampler draws sizes from a Dist.
type Sampler struct {
	d   Dist
	rng *rand.Rand
}

// NewSampler creates a deterministic sampler.
func (d Dist) NewSampler(seed int64) *Sampler {
	return &Sampler{d: d, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one message size.
func (s *Sampler) Next() int {
	u := s.rng.Float64()
	for _, b := range s.d.buckets {
		if u <= b.cum {
			if b.hi == b.lo {
				return b.lo
			}
			return b.lo + s.rng.Intn(b.hi-b.lo+1)
		}
	}
	last := s.d.buckets[len(s.d.buckets)-1]
	return last.hi
}

// Sizes draws n sizes.
func (s *Sampler) Sizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// Mean reports the distribution's analytic mean (midpoint-weighted).
func (d Dist) Mean() float64 {
	m, prev := 0.0, 0.0
	for _, b := range d.buckets {
		p := b.cum - prev
		m += p * float64(b.lo+b.hi) / 2
		prev = b.cum
	}
	return m
}

// fracBelow reports the probability of sizes <= n (bucket-resolution).
func (d Dist) fracBelow(n int) float64 {
	f, prev := 0.0, 0.0
	for _, b := range d.buckets {
		p := b.cum - prev
		switch {
		case b.hi <= n:
			f += p
		case b.lo <= n:
			f += p * float64(n-b.lo+1) / float64(b.hi-b.lo+1)
		}
		prev = b.cum
	}
	return f
}

// GusellaEthernet models the diskless-workstation traffic: 60% of the
// sub-576-byte majority at <= 50 bytes, a spread of NFS-ish mid sizes, and
// a small tail of full-size packets.
func GusellaEthernet() Dist {
	return Dist{Name: "gusella-ethernet", buckets: []bucket{
		{0.54, 32, 50},    // 60% of the 90% majority: tiny control/ack
		{0.72, 51, 200},   // small RPC
		{0.90, 201, 576},  // rest of the <576 majority
		{1.00, 577, 1500}, // bulk tail
	}}
}

// KayPasqualeTCP models the FDDI TCP mix: >99% under 200 bytes.
func KayPasqualeTCP() Dist {
	return Dist{Name: "kay-pasquale-tcp", buckets: []bucket{
		{0.60, 16, 64},
		{0.992, 65, 199},
		{1.00, 200, 1500},
	}}
}

// KayPasqualeUDP models the FDDI UDP mix: 86% under 200 bytes, dominated
// by NFS traffic with its 8 KB bulk transfers in the tail.
func KayPasqualeUDP() Dist {
	return Dist{Name: "kay-pasquale-udp", buckets: []bucket{
		{0.50, 16, 96},
		{0.86, 97, 199},
		{0.95, 200, 1472},
		{1.00, 1473, 8192}, // NFS bulk
	}}
}

// SUNYCampus models the campus traces: average 300-400 bytes.
func SUNYCampus() Dist {
	return Dist{Name: "suny-campus", buckets: []bucket{
		{0.45, 32, 80},
		{0.75, 81, 400},
		{0.92, 401, 1024},
		{1.00, 1025, 1500},
	}}
}

// All returns every distribution, for sweep benches.
func All() []Dist {
	return []Dist{GusellaEthernet(), KayPasqualeTCP(), KayPasqualeUDP(), SUNYCampus()}
}

// ZipfTable is the Zipf(s) popularity distribution over [0, n): key k has
// probability proportional to 1/(k+1)^s, so key 0 is the hottest. Unlike
// math/rand's Zipf it accepts any s >= 0 (s = 0 is uniform, datacenter key
// skews live around s ~ 0.9-1.3). It holds the cumulative weights, 8 bytes
// per key, and is read-only once built, so any number of samplers share one.
type ZipfTable struct {
	cdf []float64
}

// NewZipfTable builds the Zipf(s) table over n keys. Panics on n < 1 or
// s < 0: a silent fallback would skew every downstream tail-latency number.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n < 1 {
		panic("trafficgen: zipf needs at least one key")
	}
	if s < 0 {
		panic("trafficgen: zipf exponent must be >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // guard against accumulated rounding
	return &ZipfTable{cdf: cdf}
}

// Sampler returns a seeded sampler over the table. It samples by CDF
// inversion, so draws are exact and deterministic for a fixed seed
// regardless of runtime internals.
func (t *ZipfTable) Sampler(seed int64) *ZipfSampler {
	return &ZipfSampler{cdf: t.cdf, rng: rand.New(rand.NewSource(seed))}
}

// ZipfSampler draws keys from a ZipfTable with its own random stream.
type ZipfSampler struct {
	cdf []float64 // the table's, shared
	rng *rand.Rand
}

// NewZipf builds a seeded Zipf(s) sampler over n keys on a table of its
// own. Panics on n < 1 or s < 0, as NewZipfTable does.
func NewZipf(seed int64, n int, s float64) *ZipfSampler {
	return NewZipfTable(n, s).Sampler(seed)
}

// pow is math.Pow with the two exponents the hot path actually sees
// special-cased, so uniform (s=0) and classic Zipf (s=1) cost one divide.
func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	return math.Pow(base, exp)
}

// Next draws one key in [0, n).
func (z *ZipfSampler) Next() int {
	u := z.rng.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Keys reports the keyspace size.
func (z *ZipfSampler) Keys() int { return len(z.cdf) }

// prob reports key k's analytic probability.
func (z *ZipfSampler) prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// ExpSampler draws exponentially distributed values with the given mean:
// the inter-arrival gaps of a Poisson process, the open-loop arrival model
// of every service-workload bench. Deterministic for a fixed seed.
type ExpSampler struct {
	mean float64
	rng  *rand.Rand
}

// NewExp builds a seeded exponential sampler. Panics on mean <= 0.
func NewExp(seed int64, mean float64) *ExpSampler {
	if mean <= 0 {
		panic("trafficgen: exponential mean must be > 0")
	}
	return &ExpSampler{mean: mean, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one value (mean * standard exponential).
func (e *ExpSampler) Next() float64 { return e.mean * e.rng.ExpFloat64() }

// Mean reports the configured mean.
func (e *ExpSampler) Mean() float64 { return e.mean }
