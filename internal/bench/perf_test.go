package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
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
	warm.WallMS, warm.EventsPerSec, warm.AllocsPerOp, warm.BytesPerOp = 8, 3.46e7, 78.2, 310
	want := warm
	want.BytesPerOp = cold.BytesPerOp
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

// TestPerfAllocsPerRank holds the ladder's allocations per rank, best of
// two sessions as the report prints them, to 1.25 times what the 64- and
// 256-rank rows allocated when the dissemination barrier landed. allocs/op
// counts the runtime's own allocations too, so it is nearly but not exactly
// reproducible, and the bound is loose; the 512-4096-rank rows are printed
// on -perf's stderr and not held.
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
		{FabFatTree, 64, 51.72},
		{FabFatTree, 256, 52.98},
		{FabTorus, 256, 55.67},
	} {
		e := bestOf(func() PerfEntry { return PerfCollective(c.f, c.ranks, DefaultPerfConfig().Size) })
		if e.AllocsPerOp > slack*c.base {
			t.Errorf("allreduce on %s at %d ranks: %.2f allocs per rank, above %.2f (%.2f × %.2f)",
				c.f, c.ranks, e.AllocsPerOp, slack*c.base, slack, c.base)
		}
	}
}
