package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, entries []PerfEntry) string {
	t.Helper()
	rep := PerfReport{Schema: PerfSchema, PR: 8, Entries: entries}
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
	allreduce64 := PerfEntry{Name: "allreduce", Fabric: "fattree", Ranks: 64, SizeB: 1024, EventsPerSec: 2e6, AllocsPerOp: 10}
	edited := func(edit func(e *PerfEntry)) []PerfEntry {
		e := allreduce64
		edit(&e)
		return []PerfEntry{e}
	}
	baseEntries := []PerfEntry{
		// A retired row in the base asks nothing of the new report.
		{Name: "kernel-event-loop", EventsPerSec: 1e7, AllocsPerOp: 0.0},
		allreduce64,
	}
	base := writeReport(t, dir, "base.json", baseEntries)

	t.Run("identical passes", func(t *testing.T) {
		next := writeReport(t, dir, "same.json", baseEntries)
		if err := GateTrajectory(base, next); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("within tolerance passes", func(t *testing.T) {
		next := writeReport(t, dir, "ok.json", edited(func(e *PerfEntry) { e.EventsPerSec, e.AllocsPerOp = 1.6e6, 12 }))
		if err := GateTrajectory(base, next); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("throughput regression fails", func(t *testing.T) {
		next := writeReport(t, dir, "slow.json", edited(func(e *PerfEntry) { e.EventsPerSec = 1e6 }))
		err := GateTrajectory(base, next)
		if err == nil || !strings.Contains(err.Error(), "events/sec") {
			t.Fatalf("want events/sec violation, got %v", err)
		}
	})
	t.Run("allocation regression fails", func(t *testing.T) {
		next := writeReport(t, dir, "allocs.json", edited(func(e *PerfEntry) { e.AllocsPerOp = 13 }))
		err := GateTrajectory(base, next)
		if err == nil || !strings.Contains(err.Error(), "allocs/op") {
			t.Fatalf("want allocs/op violation, got %v", err)
		}
	})
	t.Run("deterministic fields are exact", func(t *testing.T) {
		pinned := []PerfEntry{
			{Name: "allreduce", Fabric: "fattree", Ranks: 64, SizeB: 1024, EventsPerSec: 2e6, Events: 277055, VirtualUS: 848.947},
			// A base that recorded neither field pins neither.
			{Name: "allreduce", Fabric: "torus", Ranks: 256, SizeB: 1024},
		}
		pinnedBase := writeReport(t, dir, "pinned.json", pinned)
		moved := func(name string, edit func(e *PerfEntry)) string {
			next := append([]PerfEntry(nil), pinned...)
			edit(&next[0])
			next[1].Events, next[1].VirtualUS = 3445376, 2175.085
			return writeReport(t, dir, name, next)
		}
		if err := GateTrajectory(pinnedBase, moved("same.json", func(*PerfEntry) {})); err != nil {
			t.Fatal(err)
		}
		err := GateTrajectory(pinnedBase, moved("event.json", func(e *PerfEntry) { e.Events++ }))
		if err == nil || !strings.Contains(err.Error(), "events 277056 != base 277055") {
			t.Fatalf("want a one-event difference to trip the gate, got %v", err)
		}
		err = GateTrajectory(pinnedBase, moved("virt.json", func(e *PerfEntry) { e.VirtualUS = 848.948 }))
		if err == nil || !strings.Contains(err.Error(), "virtual_us") {
			t.Fatalf("want a one-nanosecond virtual-time difference to trip the gate, got %v", err)
		}
	})
	t.Run("missing counterpart fails", func(t *testing.T) {
		next := writeReport(t, dir, "shrunk.json", baseEntries[:1])
		err := GateTrajectory(base, next)
		if err == nil || !strings.Contains(err.Error(), "allreduce|fattree|64|1024: present in") {
			t.Fatalf("want missing-entry violation, got %v", err)
		}
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

	// The committed PR 19 report still carries the three retired rows; what
	// the suite writes today is its scale ladder alone.
	pr19 := filepath.Join("..", "..", "BENCH_PR19.json")
	rep, err := LoadPerfReport(pr19)
	if err != nil {
		t.Fatal(err)
	}
	var ladder []PerfEntry
	for _, e := range rep.Entries {
		if e.Name == "allreduce" {
			ladder = append(ladder, e)
		}
	}
	if len(ladder) == len(rep.Entries) || len(ladder) < 2 {
		t.Fatalf("%s: %d of %d rows are allreduce; want retired rows and a ladder", pr19, len(ladder), len(rep.Entries))
	}
	t.Run("ladder-only report holds against BENCH_PR19", func(t *testing.T) {
		if err := GateTrajectory(pr19, writeReport(t, dir, "ladder.json", ladder)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ladder short of one BENCH_PR19 row fails", func(t *testing.T) {
		err := GateTrajectory(pr19, writeReport(t, dir, "short.json", ladder[1:]))
		if want := gateKey(ladder[0]) + ": present in"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want %q, got %v", want, err)
		}
	})
	t.Run("ladder one event off BENCH_PR19 fails", func(t *testing.T) {
		off := append([]PerfEntry(nil), ladder...)
		off[1].Events++
		err := GateTrajectory(pr19, writeReport(t, dir, "off.json", off))
		if want := gateKey(off[1]) + ": events"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want %q, got %v", want, err)
		}
	})
}

// TestBestOfSessions: a perf row's host fields are the best over its fresh
// sessions, and sessions that computed a different event count or virtual
// time fail the row.
func TestBestOfSessions(t *testing.T) {
	sessions := func(es ...PerfEntry) func() PerfEntry {
		return func() PerfEntry {
			e := es[0]
			es = es[1:]
			return e
		}
	}
	cold := PerfEntry{Name: "allreduce", Fabric: "fattree", Ranks: 64, SizeB: 1024, Events: 277055, VirtualUS: 848.947,
		WallMS: 10, EventsPerSec: 2.77e7, AllocsPerOp: 99.6, BytesPerOp: 300}
	warm := cold
	warm.WallMS, warm.EventsPerSec, warm.AllocsPerOp, warm.BytesPerOp = 8, 3.46e7, 78.2, 310
	want := warm
	want.BytesPerOp = cold.BytesPerOp
	if got := bestOf(sessions(cold, warm)); got != want {
		t.Fatalf("best of a cold and a warm session = %+v; want %+v", got, want)
	}
	moved := warm
	moved.Events++
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "session 2 ran 277056 events") {
			t.Fatalf("want sessions one event apart to fail the row, got %v", r)
		}
	}()
	bestOf(sessions(cold, moved))
}

// TestGateCommittedTrajectory holds the newest committed BENCH_PR<n>.json
// to the one before it — the comparison the CI gate step runs — without
// naming either, so a perf PR only has to commit its report.
func TestGateCommittedTrajectory(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("want at least two committed BENCH_PR*.json, have %v (%v)", paths, err)
	}
	pr := func(path string) (n int) {
		fmt.Sscanf(filepath.Base(path), "BENCH_PR%d.json", &n)
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return pr(paths[i]) < pr(paths[j]) })
	base, next := paths[len(paths)-2], paths[len(paths)-1]
	t.Logf("gating %s against %s", next, base)
	if err := GateTrajectory(base, next); err != nil {
		t.Fatal(err)
	}
}
