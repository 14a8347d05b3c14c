package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xport"
)

// smallMixed trims the suite for test time.
func smallMixed() MixedConfig {
	return MixedConfig{
		Fabrics: []Fabric{FabSingle},
		Nodes:   4,
		MPISize: 512, MPIIters: 3,
		SockSize: 2048, SockMsgs: 10,
		GAElems: 64, GAPuts: 6,
	}
}

// TestMeasureMixedShares: every co-resident service moves bytes, shares
// sum to ~100%, and both mixed and solo goodputs are positive.
func TestMeasureMixedShares(t *testing.T) {
	shares := MeasureMixed(xport.GenFM2.Machine(), FabSingle, smallMixed())
	if len(shares) != 3 {
		t.Fatalf("want 3 services, got %d", len(shares))
	}
	sum := 0.0
	for _, s := range shares {
		if s.Bytes <= 0 {
			t.Errorf("%s consumed no bytes in the mixed run", s.Service)
		}
		if s.MBps <= 0 || s.SoloMBps <= 0 {
			t.Errorf("%s goodput mixed %.2f solo %.2f", s.Service, s.MBps, s.SoloMBps)
		}
		if s.RetainedPct <= 0 {
			t.Errorf("%s retained %.1f%%", s.Service, s.RetainedPct)
		}
		sum += s.SharePct
	}
	if sum < 99.0 || sum > 101.0 {
		t.Errorf("shares sum to %.2f%%, want ~100%%", sum)
	}
}

// TestMixedDeterminism: the co-resident run is virtual-time-deterministic.
func TestMixedDeterminism(t *testing.T) {
	cfg := smallMixed()
	r1 := runMixed(xport.GenFM2.Machine(), FabSingle, cfg, mixedWorkloads)
	r2 := runMixed(xport.GenFM2.Machine(), FabSingle, cfg, mixedWorkloads)
	for i, wl := range mixedWorkloads {
		if r1[i].end <= 0 || !reflect.DeepEqual(r1[i], r2[i]) {
			t.Errorf("%s: %+v, then %+v", wl.service, r1[i], r2[i])
		}
	}
}

// TestWriteMixedReport renders on {single, fattree} per the acceptance
// criterion and mentions every service.
func TestWriteMixedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed fabric report is slow")
	}
	cfg := smallMixed()
	cfg.Fabrics = []Fabric{FabSingle, FabFatTree}
	var buf bytes.Buffer
	WriteMixedReport(&buf, xport.GenFM2.Machine(), cfg)
	out := buf.String()
	for _, want := range []string{"single", "fattree", "mpi", "sockets", "garr", "retained"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
