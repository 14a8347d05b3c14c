package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
)

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (go build does; go run does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unstamped"
}

// runChild re-executes this binary for one workload, echoing its report and
// returning the JSON result its last line holds. The child is waited for.
func runChild(name string, seed int64, seconds float64, trace int, dir string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-tracedir", dir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	return res, nil
}

// runSuite runs every workload, each in its own process, and returns the
// exit code: 0 when every output check passed (and, with aa, the two sets
// agree within the bounds).
func runSuite(seed int64, seconds float64, traced bool, dir string, aa bool) int {
	fmt.Println(hostStamp(seed))
	ok := true
	pass := func(order []string) map[string]result {
		got := make(map[string]result)
		for _, name := range order {
			res, err := runChild(name, seed, seconds, 0, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			got[name] = res
			if traced {
				tr, err := runChild(name, seed, seconds, 1, dir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				}
				ok = ok && err == nil && tr.Correct
			}
		}
		return got
	}
	names := workloadNames()
	a := pass(names)
	printSummary(a)
	if !aa {
		return exitCode(ok)
	}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	b := pass(reversed)
	printSummary(b)

	fmt.Println("\nA/A: relative difference of the second set against the first, beside the bound")
	fmt.Printf("  %-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			va, vb := a[name].Metrics[d.name].Value, b[name].Metrics[d.name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			// One seed, one code: an exact metric may not move at all.
			bound, limit := d.bound, fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.exact {
				bound, limit = 0, "exact"
			}
			verdict := ""
			if !(diff <= bound) { // also catches NaN from a missing run
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("  %-20s %-22s %14.6g %14.6g %8.2f%% %7s%s\n", name, d.name, va, vb, 100*diff, limit, verdict)
		}
	}
	return exitCode(ok)
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// printSummary is the end-to-end table: one row per workload.
func printSummary(got map[string]result) {
	fmt.Printf("\n%-20s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %18s", d.name)
	}
	fmt.Printf(" %10s\n%-20s", "failed", "")
	for _, d := range endToEnd {
		fmt.Printf(" %18s", d.unit)
	}
	fmt.Println()
	for _, name := range workloadNames() {
		res, ok := got[name]
		if !ok {
			fmt.Printf("%-20s (did not run)\n", name)
			continue
		}
		fmt.Printf("%-20s", name)
		for _, d := range endToEnd {
			fmt.Printf(" %18.6g", res.Metrics[d.name].Value)
		}
		fmt.Printf(" %4d/%d\n", res.Failed, res.Attempted)
	}
}
