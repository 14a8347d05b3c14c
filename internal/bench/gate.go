// Trajectory gate: a static comparator over two BENCH_PR<n>.json reports,
// the one place its rules are written down. The perf suite's value is the
// trajectory of its numbers across PRs, so tier-1
// (TestGateCommittedTrajectory) holds the newest committed report to the one
// before it, and a row passes only if:
//
//   - it is in the new report once: a key (gateKey) listed twice fails;
//   - every base row has a counterpart: coverage may not shrink;
//   - virtual_us and digest, what the model computes, equal the base's
//     exactly — no tolerance, the simulation is deterministic. A base row
//     that did not record a field (virtual_us 0, digest "") is skipped on it;
//   - allocs/op does not rise past the base's by more than GateTolerancePct.
//
// A model change that moves virtual_us or digest on purpose says so in the
// new report: an optional "rebaseline" note gives a reason and names the rows
// (by gateKey) it moves; those rows are let off both fields. The note is
// written by hand, must give a reason, and every row it names must have
// moved, so a note cannot outlive its change.
//
// events, wall_ms and events_per_sec are reported and not gated. events
// counts dispatcher events, which a scheduling shortcut may remove without
// moving any answer. Wall time depends on the box the report was taken on —
// an unchanged tree has measured past a 25 % events/sec floor on a slower
// one — so host speed is left to benchmark/'s paired runs of parent and
// change on one box. allocs/op does not depend on box speed.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// GateTolerancePct is how far allocs/op may rise against the base: it counts
// runtime allocations too, so it is nearly but not exactly reproducible.
const GateTolerancePct = 25.0

// Rebaseline is a report's note that the rows it names move virtual_us or
// digest on purpose, and why.
type Rebaseline struct {
	Reason string   `json:"reason"`
	Rows   []string `json:"rows"` // gateKey of each row
}

// gateKey identifies comparable entries across reports.
func gateKey(e PerfEntry) string {
	return fmt.Sprintf("%s|%s|%d|%d", e.Name, e.Fabric, e.Ranks, e.SizeB)
}

// LoadPerfReport reads a committed BENCH_*.json file.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", path, err)
	}
	if rep.Schema != PerfSchema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, rep.Schema, PerfSchema)
	}
	return &rep, nil
}

// CommittedReports lists dir's BENCH_PR<n>.json files in order of n.
func CommittedReports(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	if err != nil {
		return nil, err
	}
	pr := func(path string) (n int) {
		fmt.Sscanf(filepath.Base(path), "BENCH_PR%d.json", &n)
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return pr(paths[i]) < pr(paths[j]) })
	return paths, nil
}

// GateTrajectory holds the report at newPath to the one at basePath by the
// rules above. It returns nil when the trajectory holds, and an error naming
// every violation otherwise.
func GateTrajectory(basePath, newPath string) error {
	base, err := LoadPerfReport(basePath)
	if err != nil {
		return err
	}
	next, err := LoadPerfReport(newPath)
	if err != nil {
		return err
	}
	var bad []string
	fail := func(key, format string, args ...any) {
		bad = append(bad, key+": "+fmt.Sprintf(format, args...))
	}
	fresh := make(map[string]PerfEntry)
	for _, e := range next.Entries {
		if _, dup := fresh[gateKey(e)]; dup {
			fail(gateKey(e), "listed twice in %s", newPath)
		}
		fresh[gateKey(e)] = e
	}
	var note Rebaseline
	if next.Rebaseline != nil {
		note = *next.Rebaseline
		if strings.TrimSpace(note.Reason) == "" {
			fail("rebaseline", "the note gives no reason")
		}
	}
	noted := make(map[string]bool)
	for _, k := range note.Rows {
		noted[k] = true
	}
	for _, b := range base.Entries {
		key := gateKey(b)
		n, ok := fresh[key]
		if !ok {
			fail(key, "present in %s but missing from %s (coverage may not shrink)", basePath, newPath)
			continue
		}
		virtMoved := b.VirtualUS != 0 && n.VirtualUS != b.VirtualUS
		digestMoved := b.Digest != "" && n.Digest != b.Digest
		switch {
		case noted[key]:
			if !virtMoved && !digestMoved {
				fail(key, "named by the rebaseline note but did not move")
			}
			delete(noted, key)
		case virtMoved:
			fail(key, "virtual_us %v != base %v (the model's answer moved; deterministic, no tolerance)",
				n.VirtualUS, b.VirtualUS)
		case digestMoved:
			fail(key, "digest %s != base %s (a rank's start or end moved; deterministic, no tolerance)",
				n.Digest, b.Digest)
		}
		if ceil := b.AllocsPerOp * (1 + GateTolerancePct/100); n.AllocsPerOp > ceil {
			fail(key, "allocs/op %.2f > ceiling %.2f (base %.2f, tol %.0f%%)",
				n.AllocsPerOp, ceil, b.AllocsPerOp, GateTolerancePct)
		}
	}
	for _, k := range note.Rows {
		if noted[k] {
			fail(k, "named by the rebaseline note but not in %s, so it did not move", basePath)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: trajectory gate %s -> %s failed:\n  %s",
			basePath, newPath, strings.Join(bad, "\n  "))
	}
	return nil
}
