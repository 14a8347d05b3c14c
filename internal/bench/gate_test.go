package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, entries []PerfEntry, note *Rebaseline) string {
	t.Helper()
	rep := PerfReport{Schema: PerfSchema, PR: 8, Entries: entries, Rebaseline: note}
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateTrajectory(t *testing.T) {
	dir := t.TempDir()
	// Four ranks; rank 1 is neither the first to start nor the last to end.
	stamps := []stamp{{100, 900}, {120, 700}, {110, 950}, {130, 800}}
	allreduce64 := PerfEntry{Name: "allreduce", Fabric: "fattree", Ranks: 64, SizeB: 1024,
		VirtualUS: 848.947, Digest: digest(stamps), Events: 277055, WallMS: 17.7, EventsPerSec: 1.57e7, AllocsPerOp: 10}
	torus256 := PerfEntry{Name: "allreduce", Fabric: "torus", Ranks: 256, SizeB: 1024, AllocsPerOp: 10}
	baseEntries := []PerfEntry{allreduce64, torus256}
	base := writeReport(t, dir, "base.json", baseEntries, nil)
	edited := func(edit func(e *PerfEntry)) []PerfEntry {
		e := allreduce64
		edit(&e)
		return []PerfEntry{e, torus256}
	}
	virtMoved := func(e *PerfEntry) { e.VirtualUS = 848.948 }
	gate := func(name string, entries []PerfEntry, note *Rebaseline) error {
		return GateTrajectory(base, writeReport(t, dir, name, entries, note))
	}
	passes := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	failsOn := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want a violation containing %q, got %v", want, err)
		}
	}

	t.Run("identical passes", func(t *testing.T) {
		passes(t, gate("same.json", baseEntries, nil))
	})
	t.Run("host fields and events move freely", func(t *testing.T) {
		passes(t, gate("host.json", edited(func(e *PerfEntry) {
			e.Events, e.WallMS, e.EventsPerSec = 200000, 40, 5e6
		}), nil))
	})
	t.Run("deterministic fields are exact", func(t *testing.T) {
		failsOn(t, gate("virt.json", edited(virtMoved), nil), "virtual_us 848.948 != base 848.947")
		// One rank ends a nanosecond later, the span does not move.
		later := append([]stamp(nil), stamps...)
		later[1].end++
		if span(later) != span(stamps) {
			t.Fatal("the edit moved the span")
		}
		failsOn(t, gate("digest.json", edited(func(e *PerfEntry) { e.Digest = digest(later) }), nil),
			"digest "+digest(later)+" != base "+digest(stamps))
	})
	t.Run("a base row without digest or virtual_us pins neither", func(t *testing.T) {
		next := []PerfEntry{allreduce64, torus256}
		next[1].VirtualUS, next[1].Digest = 2175.085, "0123456789abcdef"
		passes(t, gate("unpinned.json", next, nil))
	})
	t.Run("within tolerance passes", func(t *testing.T) {
		passes(t, gate("allocs-ok.json", edited(func(e *PerfEntry) { e.AllocsPerOp = 12 }), nil))
	})
	t.Run("allocation regression fails", func(t *testing.T) { // +30 %
		failsOn(t, gate("allocs.json", edited(func(e *PerfEntry) { e.AllocsPerOp = 13 }), nil), "allocs/op")
	})
	t.Run("missing counterpart fails", func(t *testing.T) {
		failsOn(t, gate("shrunk.json", baseEntries[1:], nil), gateKey(allreduce64)+": present in")
	})
	t.Run("duplicate key fails", func(t *testing.T) {
		failsOn(t, gate("dup.json", append(edited(func(*PerfEntry) {}), allreduce64), nil),
			gateKey(allreduce64)+": listed twice")
	})
	t.Run("noted row that moved passes", func(t *testing.T) {
		note := &Rebaseline{Reason: "the model moved", Rows: []string{gateKey(allreduce64)}}
		passes(t, gate("noted.json", edited(func(e *PerfEntry) {
			virtMoved(e)
			e.Digest = "0123456789abcdef"
		}), note))
	})
	t.Run("note without a reason fails", func(t *testing.T) {
		note := &Rebaseline{Reason: " ", Rows: []string{gateKey(allreduce64)}}
		failsOn(t, gate("reasonless.json", edited(virtMoved), note), "no reason")
	})
	t.Run("noted row that did not move fails", func(t *testing.T) {
		note := &Rebaseline{Reason: "the model moved", Rows: []string{gateKey(allreduce64), gateKey(torus256), "allreduce|torus|512|1024"}}
		err := gate("stale.json", edited(virtMoved), note)
		failsOn(t, err, gateKey(torus256)+": named by the rebaseline note but did not move")
		failsOn(t, err, "allreduce|torus|512|1024: named by the rebaseline note but not in")
	})
	t.Run("wrong schema fails", func(t *testing.T) {
		path := filepath.Join(dir, "schema.json")
		if err := os.WriteFile(path, []byte(`{"schema":"other/9","entries":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := GateTrajectory(base, path); err == nil {
			t.Fatal("foreign schema accepted")
		}
	})
}

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
	cold := PerfEntry{Name: "allreduce", Fabric: "fattree", Ranks: 64, SizeB: 1024, Events: 277055, VirtualUS: 848.947,
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

// TestGateCommittedTrajectory holds the newest committed BENCH_PR<n>.json
// to the one before it without naming either, so a perf PR only has to
// commit its report.
func TestGateCommittedTrajectory(t *testing.T) {
	paths, err := CommittedReports(filepath.Join("..", ".."))
	if err != nil || len(paths) < 2 {
		t.Fatalf("want at least two committed BENCH_PR*.json, have %v (%v)", paths, err)
	}
	base, next := paths[len(paths)-2], paths[len(paths)-1]
	t.Logf("gating %s against %s", next, base)
	if err := GateTrajectory(base, next); err != nil {
		t.Fatal(err)
	}
}
