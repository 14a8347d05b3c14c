package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpifm"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestBestOfSessions: a perf row's host fields are the best over its fresh
// sessions, and sessions that computed a different event count, virtual
// time or digest fail the row.
func TestBestOfSessions(t *testing.T) {
	sessions := func(es ...PerfEntry) func() PerfEntry {
		return func() PerfEntry {
			e := es[0]
			es = es[1:]
			return e
		}
	}
	cold := PerfEntry{Name: "allreduce", Fabric: "fattree", Ranks: 64, Events: 277055, VirtualUS: 848.947,
		Digest: "0123456789abcdef", WallMS: 10, EventsPerSec: 2.77e7, AllocsPerOp: 99.6, BytesPerOp: 300}
	warm := cold
	cold.HeapKiB, cold.BuildAllocs = 5.5, 20.5
	warm.WallMS, warm.EventsPerSec, warm.AllocsPerOp, warm.BytesPerOp, warm.HeapKiB, warm.BuildAllocs = 8, 3.46e7, 78.2, 310, 5.75, 21
	want := warm
	want.BytesPerOp, want.HeapKiB, want.BuildAllocs = cold.BytesPerOp, cold.HeapKiB, cold.BuildAllocs
	if got := bestOf(sessions(cold, warm)); got != want {
		t.Fatalf("best of a cold and a warm session = %+v; want %+v", got, want)
	}
	for what, edit := range map[string]func(e *PerfEntry){
		"one event apart":    func(e *PerfEntry) { e.Events++ },
		"a different digest": func(e *PerfEntry) { e.Digest = "fedcba9876543210" },
	} {
		moved := warm
		edit(&moved)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "session 2 ran") {
					t.Errorf("want sessions %s to fail the row, got %v", what, r)
				}
			}()
			bestOf(sessions(cold, moved))
		}()
	}
}

// TestPerfAllocsPerRank holds the ladder's allocations per rank in the run,
// best of two sessions as the report prints them, to 1.25 times a base. The
// fat-tree bases are what the rows allocated once frames were carved from
// slabs (50.09 and 50.04; 51.72 and 52.98 before). The torus base is what
// that row allocated when the dissemination barrier landed; the row reads
// 57.77 with slabs (60.20 without), so the base stays where it was rather
// than rise.
// allocs/op counts the runtime's own allocations too, so it is nearly but not
// exactly reproducible, and the bound is loose; the 512-4096-rank rows are
// printed on -perf's stderr and not held.
func TestPerfAllocsPerRank(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const slack = 1.25
	for _, c := range []struct {
		f     Fabric
		ranks int
		base  float64
	}{
		{FabFatTree, 64, 50.09},
		{FabFatTree, 256, 50.04},
		{FabTorus, 256, 55.67},
	} {
		e := bestOf(func() PerfEntry { return PerfCollective(c.f, c.ranks, DefaultPerfConfig().Size) })
		if e.AllocsPerOp > slack*c.base {
			t.Errorf("allreduce on %s at %d ranks: %.2f allocs per rank, above %.2f (%.2f × %.2f)",
				c.f, c.ranks, e.AllocsPerOp, slack*c.base, slack, c.base)
		}
	}
}

// sessionHeapKiB builds an n-rank MPI world of machine m on fabric f, as a
// perf row does, and reports the live heap it holds in KiB per rank. Nothing
// runs.
func sessionHeapKiB(m xport.Machine, ranks int, f Fabric) float64 {
	var pl *cluster.Platform
	var comms []*mpifm.Comm // the platform does not reach the endpoints
	heap, _ := liveHeap(func() { pl, comms = mpiWorld(m, ranks, f, mpifm.Options{}) })
	runtime.KeepAlive(comms)
	pl.K.Shutdown()
	return float64(heap) / 1024 / float64(ranks)
}

// TestHeapPerRankIsFlat holds the session heap a rank costs to what it talks
// to: an allreduce rank has ⌈log₂ N⌉ partners, so the live heap per rank of a
// freshly built fat-tree MPI world may grow by at most a quarter from 256 to
// 4096 ranks, on either FM generation. Dense per-peer rows — a credit ledger
// or an FM 1.x reassembly table of length N on every node — grew it 7 to 8
// times. Nothing runs: the worlds are only built.
func TestHeapPerRankIsFlat(t *testing.T) {
	const small, large, slack = 256, 4096, 1.25
	for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		at256 := sessionHeapKiB(g.Machine(), small, FabFatTree)
		at4096 := sessionHeapKiB(g.Machine(), large, FabFatTree)
		t.Logf("%s: %.1f KiB per rank at %d ranks, %.1f at %d", g, at256, small, at4096, large)
		if at4096 > slack*at256 {
			t.Errorf("%s: %.1f KiB per rank at %d ranks, above %.2f × the %.1f at %d: per-rank state grows with N",
				g, at4096, large, slack, at256, small)
		}
	}
}

// runHeapKiB runs one allreduce of size bytes per rank on an n-rank FM 2.x
// fat-tree MPI world and reports the live heap the session holds after it,
// in KiB per rank.
func runHeapKiB(ranks, size int) float64 {
	var pl *cluster.Platform
	var comms []*mpifm.Comm
	heap, _ := liveHeap(func() {
		pl, comms = mpiWorld(xport.GenFM2.Machine(), ranks, FabFatTree, mpifm.Options{})
		spawnCollective(pl, comms, CollAllreduce, mpifm.AlgoAuto, collSize(size))
		run(pl, "allreduce ranks=%d", ranks)
	})
	runtime.KeepAlive(comms)
	pl.K.Shutdown()
	return float64(heap) / 1024 / float64(ranks)
}

// TestRunHeapPerRankIsFlat is TestHeapPerRankIsFlat after traffic: state
// that grows as ranks talk — a ledger entry, a reassembly slot, a pooled
// frame per peer — is not there in a world that is only built. After one
// 1 KiB FM 2.x allreduce on the fat tree, the live heap per rank at 1024
// ranks may be at most a quarter above its value at 256 (12.3 and 12.0 KiB
// when the credit ledger became sparse; a paged ledger held 14.8 KiB per
// rank at 256 and 35.6 at 4096).
func TestRunHeapPerRankIsFlat(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("10 s under the race detector; the alloc-gate job holds it in 1 s")
	}
	const small, large, size, slack = 256, 1024, 1024, 1.25
	at256, at1024 := runHeapKiB(small, size), runHeapKiB(large, size)
	t.Logf("%.1f KiB per rank at %d ranks, %.1f at %d, after one %d B allreduce", at256, small, at1024, large, size)
	if at1024 > slack*at256 {
		t.Errorf("%.1f KiB per rank at %d ranks after an allreduce, above %.2f × the %.1f at %d: per-rank state grows with N as ranks talk",
			at1024, large, slack, at256, small)
	}
}
