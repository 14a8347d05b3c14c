package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Trajectory gate: a static comparator over two committed BENCH_*.json
// files. The perf suite's value is the TRAJECTORY of numbers across PRs,
// not any one snapshot — so tier-1 holds each new report to the previous one:
// the engine may not lose events/sec or gain allocs/op beyond a tolerance,
// and what the simulation computes — the event count and the virtual time of
// every entry — may not move at all.

// GateTolerancePct is the regression allowance for the numbers measured on
// the host. Events/sec on a shared CI runner is noisy; allocs/op is nearly
// exact, but counts runtime allocations too, so it shares the tolerance.
// events and virtual_us get none: they are outputs of a deterministic
// simulation.
const GateTolerancePct = 25.0

// gateKey identifies comparable entries across reports.
func gateKey(e PerfEntry) string {
	return fmt.Sprintf("%s|%s|%d|%d", e.Name, e.Fabric, e.Ranks, e.SizeB)
}

// retiredRows are the measurements the suite no longer takes, each with the
// benchmark/ metric (BENCHMARK.json, taken with repetitions) that answers
// its question now. A base that carries one — every BENCH_PR*.json up to
// PR 19 does — loses no coverage when the new report lacks it; any other
// missing row still fails.
var retiredRows = map[string]string{
	"kernel-event-loop":     "kernel-churn: sim.ns_per_event.p1",
	"fm2-send-steady-state": "pt2pt-sweep: host_ops_per_s, host_allocs_per_op, fm2.allocs_per_msg",
	"svcload-open":          "rpc-open: svcload.host_us_per_req.r*, svcload.events_per_req.r*",
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

// GateTrajectory compares the entries of newPath against basePath: every
// base entry not retired must have a counterpart, events and virtual_us must
// equal the base's exactly (a field the base did not record, i.e. 0, is
// skipped), events/sec must not fall below base*(1-tol%), and allocs/op must
// not rise above base*(1+tol%).
// Returns nil when the trajectory holds; an error naming every violation
// otherwise.
func GateTrajectory(basePath, newPath string) error {
	const tolPct = GateTolerancePct
	base, err := LoadPerfReport(basePath)
	if err != nil {
		return err
	}
	next, err := LoadPerfReport(newPath)
	if err != nil {
		return err
	}
	fresh := make(map[string]PerfEntry)
	for _, e := range next.Entries {
		fresh[gateKey(e)] = e
	}
	var bad []string
	for _, b := range base.Entries {
		if _, gone := retiredRows[b.Name]; gone {
			continue
		}
		n, ok := fresh[gateKey(b)]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: present in %s but missing from %s (coverage may not shrink)",
				gateKey(b), basePath, newPath))
			continue
		}
		if b.Events != 0 && n.Events != b.Events {
			bad = append(bad, fmt.Sprintf("%s: events %d != base %d (the schedule moved; deterministic, no tolerance)",
				gateKey(b), n.Events, b.Events))
		}
		if b.VirtualUS != 0 && n.VirtualUS != b.VirtualUS {
			bad = append(bad, fmt.Sprintf("%s: virtual_us %v != base %v (the model's answer moved; deterministic, no tolerance)",
				gateKey(b), n.VirtualUS, b.VirtualUS))
		}
		if floor := b.EventsPerSec * (1 - tolPct/100); n.EventsPerSec < floor {
			bad = append(bad, fmt.Sprintf("%s: events/sec %.0f < floor %.0f (base %.0f, tol %.0f%%)",
				gateKey(b), n.EventsPerSec, floor, b.EventsPerSec, tolPct))
		}
		if ceil := b.AllocsPerOp * (1 + tolPct/100); n.AllocsPerOp > ceil {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.2f > ceiling %.2f (base %.2f, tol %.0f%%)",
				gateKey(b), n.AllocsPerOp, ceil, b.AllocsPerOp, tolPct))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: trajectory gate %s -> %s failed:\n  %s",
			basePath, newPath, strings.Join(bad, "\n  "))
	}
	return nil
}
