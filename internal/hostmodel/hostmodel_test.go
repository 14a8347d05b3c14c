package hostmodel

import (
	"testing"

	"repro/internal/sim"
)

func TestMemcpyCacheThreshold(t *testing.T) {
	k := sim.NewKernel()
	h := NewHost(k, 0, Sparc())
	var small, large sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		h.Memcpy(p, 256) // below the 512 threshold: cache rate
		small = p.Now() - t0
		t0 = p.Now()
		h.Memcpy(p, 2048) // above: memory rate
		large = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	prof := Sparc()
	wantSmall := prof.MemcpySetup + sim.BytesTime(256, prof.MemcpyMBps)
	wantLarge := prof.MemcpySetup + sim.BytesTime(2048, prof.MemcpyLargeMBps)
	if small != wantSmall {
		t.Errorf("small copy %v, want %v", small, wantSmall)
	}
	if large != wantLarge {
		t.Errorf("large copy %v, want %v", large, wantLarge)
	}
	// Per-byte rate of the large copy must be slower.
	if float64(large)/2048 <= float64(small-prof.MemcpySetup)/256 {
		t.Error("large copies should be slower per byte")
	}
}

func TestBusSerializesUsers(t *testing.T) {
	k := sim.NewKernel()
	h := NewHost(k, 0, PPro200())
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("u", func(p *sim.Proc) {
			h.BusTransfer(p, 1200)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	prof := PPro200()
	per := prof.BusSetup + sim.BytesTime(1200, prof.BusMBps)
	if done[0] != per {
		t.Errorf("first transfer done at %v, want %v", done[0], per)
	}
	if done[1] != 2*per {
		t.Errorf("second transfer done at %v, want %v (serialized)", done[1], 2*per)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	k := sim.NewKernel()
	h := NewHost(k, 0, PPro200())
	k.Spawn("p", func(p *sim.Proc) {
		h.Memcpy(p, 100)
		h.Memcpy(p, 200)
		h.BusTransfer(p, 300)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Memcpys != 2 || st.MemcpyBytes != 300 || st.BusXfers != 1 || st.BusBytes != 300 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProfilesAreDistinctEras(t *testing.T) {
	s, pp := Sparc(), PPro200()
	if pp.BusMBps <= s.BusMBps*3 {
		t.Error("PCI should be several times Sbus")
	}
	if pp.Link.BandwidthMBps <= s.Link.BandwidthMBps {
		t.Error("second-generation Myrinet should be faster")
	}
	if pp.PacketMTU <= s.PacketMTU {
		t.Error("FM 2.x uses larger packets")
	}
	for _, p := range []Profile{s, pp} {
		if p.CreditWindow <= 0 || p.RingSlots < p.CreditWindow {
			t.Errorf("%s: window/ring mis-sized", p.Name)
		}
		if p.MemcpyLargeMBps > p.MemcpyMBps {
			t.Errorf("%s: cache-missing copies cannot be faster", p.Name)
		}
	}
}
