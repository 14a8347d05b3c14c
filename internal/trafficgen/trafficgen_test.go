package trafficgen

import (
	"testing"
	"testing/quick"
)

func TestCitedFractions(t *testing.T) {
	// Kay & Pasquale: over 99% of TCP packets under 200 bytes.
	if f := KayPasqualeTCP().fracBelow(199); f < 0.99 {
		t.Errorf("TCP frac below 200 = %.3f, want >= 0.99", f)
	}
	// 86% of UDP under 200 bytes.
	if f := KayPasqualeUDP().fracBelow(199); f < 0.84 || f > 0.88 {
		t.Errorf("UDP frac below 200 = %.3f, want ~0.86", f)
	}
	// Gusella: majority below 576 bytes; 60% of those at <= 50 bytes.
	g := GusellaEthernet()
	below576 := g.fracBelow(576)
	if below576 < 0.85 {
		t.Errorf("gusella frac below 576 = %.3f, want majority", below576)
	}
	if r := g.fracBelow(50) / below576; r < 0.55 || r > 0.65 {
		t.Errorf("gusella <=50B share of sub-576 = %.2f, want ~0.60", r)
	}
}

func TestSUNYMeanInRange(t *testing.T) {
	// SUNY traces: average packet sizes of 300-400 bytes.
	if m := SUNYCampus().Mean(); m < 300 || m > 400 {
		t.Errorf("SUNY mean %.0f, want 300-400", m)
	}
}

func TestSamplerMatchesCDF(t *testing.T) {
	for _, d := range All() {
		s := d.NewSampler(42)
		const n = 20000
		below200 := 0
		for i := 0; i < n; i++ {
			if s.Next() <= 199 {
				below200++
			}
		}
		got := float64(below200) / n
		want := d.fracBelow(199)
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("%s: sampled frac<200 %.3f vs analytic %.3f", d.Name, got, want)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := GusellaEthernet().NewSampler(7).Sizes(100)
	b := GusellaEthernet().NewSampler(7).Sizes(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sizes")
		}
	}
	c := GusellaEthernet().NewSampler(8).Sizes(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, b := NewZipf(1998, 512, 1.1), NewZipf(1998, 512, 1.1)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different zipf keys")
		}
	}
	c := NewZipf(1999, 512, 1.1)
	a2 := NewZipf(1998, 512, 1.1)
	same := true
	for i := 0; i < 1000; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical zipf streams")
	}
}

func TestZipfSkew(t *testing.T) {
	const n, draws = 64, 40000
	share := func(s float64) float64 {
		z := NewZipf(7, n, s)
		hot := 0
		for i := 0; i < draws; i++ {
			if z.Next() == 0 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	// s = 0 is uniform: key 0 gets ~1/n.
	if got := share(0); got < 0.5/n || got > 2.0/n {
		t.Errorf("uniform hot-key share %.4f, want ~%.4f", got, 1.0/n)
	}
	// Skew grows with s, and the sampled share tracks the analytic one.
	s09, s14 := share(0.9), share(1.4)
	if s09 <= 2.0/n {
		t.Errorf("s=0.9 hot-key share %.4f, want visibly skewed", s09)
	}
	if s14 <= s09 {
		t.Errorf("hot-key share did not grow with s: s=0.9 %.4f, s=1.4 %.4f", s09, s14)
	}
	z := NewZipf(7, n, 1.4)
	if want := z.prob(0); s14 < want-0.03 || s14 > want+0.03 {
		t.Errorf("s=1.4 sampled hot share %.4f vs analytic %.4f", s14, want)
	}
}

func TestZipfSupportAndProb(t *testing.T) {
	z := NewZipf(3, 17, 0.8)
	sum := 0.0
	for k := 0; k < z.Keys(); k++ {
		sum += z.prob(k)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %.4f", sum)
	}
	for i := 0; i < 5000; i++ {
		if k := z.Next(); k < 0 || k >= 17 {
			t.Fatalf("key %d outside [0,17)", k)
		}
	}
}

func TestExpSampler(t *testing.T) {
	a, b := NewExp(11, 50.0), NewExp(11, 50.0)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("same seed produced different exponential draws")
		}
		if va < 0 {
			t.Fatalf("negative gap %f", va)
		}
		sum += va
	}
	if mean := sum / n; mean < 48 || mean > 52 {
		t.Errorf("sampled mean %.2f, want ~50", mean)
	}
}

// Property: samples always fall within the distribution's support.
func TestPropertySamplesInSupport(t *testing.T) {
	f := func(seed int64) bool {
		for _, d := range All() {
			lo := d.buckets[0].lo
			hi := d.buckets[len(d.buckets)-1].hi
			s := d.NewSampler(seed)
			for i := 0; i < 200; i++ {
				v := s.Next()
				if v < lo || v > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
