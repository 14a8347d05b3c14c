package sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// allreduce64 runs rounds of a 64-rank fat-tree MPI allreduce, each rank
// acting for its node, and returns the kernel's census.
func allreduce64(t *testing.T, rounds int) sim.Census {
	t.Helper()
	s, err := fmnet.New(fmnet.Nodes(64), fmnet.Topology(fmnet.FatTree), fmnet.WithMPI(), fmnet.FM2())
	if err != nil {
		t.Fatal(err)
	}
	s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) {
		c := s.MPI(rank)
		in, out := make([]byte, 64), make([]byte, 64)
		if err := c.Barrier(p); err != nil {
			t.Error(err)
		}
		for i := 0; i < rounds; i++ {
			if err := c.Allreduce(p, in, out, fmnet.OpSumU32); err != nil {
				t.Error(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.Kernel().Census()
}

// Ranks waiting on a quiet node are dormant: at least 90 % of an allreduce's
// idle ticks are rotated without an Idle call. A spawn site left untagged
// (a rank, a handler worker, NIC firmware, a switch forwarder) counts every
// event it runs as global and ends every dormancy, which fails here. The
// ticks are the allreduce rounds': the dissemination barrier before them
// idles ⌈log₂ 64⌉ short trips per rank, 7 760 dormant ticks of the run's
// 161 680, where a central barrier's ranks idled while rank 0 worked
// through 63 tokens alone (119 720 of 335 373).
func TestDormantTicksDominateAllreduce(t *testing.T) {
	c := allreduce64(t, 4)
	idle := c.Idle + c.Dormant
	if idle == 0 || c.Dormant*10 < idle*9 {
		t.Fatalf("%d of %d idle ticks dormant, want at least 90 %%: %+v", c.Dormant, idle, c)
	}
	t.Logf("census %+v", c)
}

// Every dormant rotation of these whole workloads asks the Idler as well
// (export_test.go), and none finds the Proc busy: a verdict the dispatcher
// reuses is one the Idler would still give. The reports are the committed
// goldens byte for byte, so the extra Idle calls moved nothing.
func TestDormantRotationsAgreeWithIdle(t *testing.T) {
	checked0, _, _ := sim.DormantChecks()
	allreduce64(t, 2)
	var svc bytes.Buffer
	if err := bench.WriteSvcReport(&svc); err != nil {
		t.Fatal(err)
	}
	golden(t, filepath.Join("..", "..", "cmd", "fmbench", "testdata", "svc.golden"), svc.Bytes())
	dir := filepath.Join("..", "..", "campaigns", "smoke")
	c, err := scenario.RunCampaign(dir, scenario.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, filepath.Join(dir, scenario.GoldenName), c.Marshal())
	checked, disagreed, first := sim.DormantChecks()
	if disagreed != 0 {
		t.Fatalf("%d of %d dormant rotations disagree with the Idler; the first: %s", disagreed, checked, first)
	}
	if checked == checked0 {
		t.Fatal("no dormant rotation was checked")
	}
	t.Logf("%d dormant rotations checked", checked-checked0)
}

func golden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s\n--- got ---\n%s", path, got)
	}
}
