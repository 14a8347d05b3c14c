package fmnet

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designRules are the design rules a line search can hold. Each is stated
// once, in the doc of its home package (go doc <home>); a row names the
// files the rule covers and the text that breaks it. Comments count: a line
// that spells a forbidden call is a violation wherever it is.
var designRules = []struct {
	rule   string
	home   string   // the package whose doc states the rule, as go doc takes it
	paths  []string // files, or directories searched recursively, from the module root
	except []string // files, or directories, the rule leaves out
	tests  bool     // whether _test.go files count
	bad    *regexp.Regexp
	allow  *regexp.Regexp // lines bad matches that the rule lets through
}{
	{
		rule: "the paper table", home: "./internal/bench",
		paths: []string{"internal/bench", "cmd/fmbench"}, except: []string{"internal/bench/paper.go"}, tests: true,
		bad: regexp.MustCompile(`\(paper[ :]|paper [0-9<>~]`),
	},
	{
		rule: "the endpoint core", home: "./internal/flowctl",
		paths: []string{"internal/fm1/fm1.go", "internal/fm2/fm2.go", "internal/fm2/send.go", "internal/fm2/recv.go"},
		bad:   regexp.MustCompile(`PollEvery\(|PollCycle\(|NewFramePool\(|\.Poll\(\)`),
	},
	{
		rule: "hardware loops as Machines", home: "./internal/sim",
		paths: []string{"internal/lanai/lanai.go", "internal/netsim/netsim.go"},
		bad:   regexp.MustCompile(`SpawnDaemon\(`),
	},
	{
		rule: "the kernel's control token", home: "./internal/sim",
		paths: []string{"internal/sim/kernel.go"},
		bad:   regexp.MustCompile(`go func|chan struct\{\}`),
	},
	{
		rule: "the patterns table", home: "./internal/scenario",
		paths: []string{"internal/scenario/run.go", "internal/scenario/scenario.go"},
		bad:   regexp.MustCompile(`Pattern == "|case "(ring|pairs|alltoall|incast|allreduce|rpc)"`),
	},
	{
		rule: "upper layers and cluster", home: "./internal/cluster",
		paths: []string{"internal/mpifm", "internal/sockfm", "internal/shmem", "internal/garr", "internal/svcload", "internal/scenario"},
		bad:   regexp.MustCompile(`"repro/internal/cluster"`),
	},
	{
		rule: "machine builders", home: "./internal/cluster",
		paths: []string{"."}, except: []string{"fmnet.go", "internal/bench/world.go"},
		bad: regexp.MustCompile(`cluster\.Assemble\(`),
	},
	{
		rule: "one hang report", home: "./internal/sim",
		paths: []string{"."}, except: []string{"design_test.go"}, tests: true,
		bad: regexp.MustCompile(`LiveNames|liveNames|hangReport|diagnoseHang|NodeDiag|StreamAccounting|LostCreditReturns`),
	},
	{
		rule: "one machine per generation", home: "./internal/xport",
		paths: []string{"."}, tests: true,
		except: []string{"benchmark", "internal/cluster", "internal/lanai", "internal/fm1", "internal/fm2", "internal/flowctl",
			"internal/xport/machine.go", "internal/mpifm/overheads.go"},
		bad: regexp.MustCompile(`hostmodel\.(Sparc|PPro200)\(|(Sparc|PPro)Overheads\(|OverheadsFor\(`),
	},
	{
		// Two reslices are not FIFOs: a source route, consumed one hop per
		// switch and never pushed to, and the layer table's tail.
		rule: "one FIFO: sim.Queue", home: "./internal/bufpool",
		paths: []string{"."}, except: []string{"internal/sim/fifo.go", "internal/bufpool"},
		bad:   regexp.MustCompile(`= [\w.]+\[1:\]\s*$|\[:copy\(.*\[1:\]\)\]|compactAt`),
		allow: regexp.MustCompile(`pkt\.Route = pkt\.Route\[1:\]|UpperLayers = AllLayers\[1:\]`),
	},
	{
		// No switch, option or parameter turns poisoning on or off, and
		// nothing but Recycler.Put's fill stores the poison byte.
		rule: "every release is poisoned, by Recycler.Put", home: "./internal/bufpool",
		paths: []string{"."}, except: []string{"internal/bufpool", "design_test.go"}, tests: true,
		bad: regexp.MustCompile(`WithPoison|PoisonFrames|SetPoison|Poisoned\(\)|\bpoison(, | bool)|bufpool\.New\([^,()]*,|\] *= *(bufpool\.)?PoisonByte`),
	},
	{
		// A partial engine is a Profile.Stage; no NIC or engine config,
		// field or parameter switches a stage off.
		rule: "the engines take no configuration", home: "./internal/hostmodel",
		paths: []string{"."}, except: []string{"design_test.go"}, tests: true,
		bad: regexp.MustCompile(`DisableBus|DisableFlowControl|DisableBufferMgmt|lanai\.Config|noFlowControl`),
	},
	{
		rule: "one kernel per simulation; replicas are par's", home: "./internal/sim",
		paths: []string{"."}, except: []string{"internal/par", "internal/sim/kernel.go", "internal/bench/paper.go"},
		bad: regexp.MustCompile(`^\s*(import\s+)?(\w+\s+)?"sync(/atomic)?"`),
	},
	{
		rule: "the fleet holds no generated schedule", home: "./internal/svcload",
		paths: []string{"internal/svcload/svcload.go"},
		bad:   regexp.MustCompile(`make\(\[\]req|\[\]\[\]req`),
	},
	{
		rule: "the public surface", home: ".",
		paths: []string{"example_test.go"}, tests: true,
		bad: regexp.MustCompile(`repro/internal`),
	},
}

// TestDesignRules fails on every line that breaks a rule of designRules,
// naming the file:line and the package doc that states the rule.
func TestDesignRules(t *testing.T) {
	for _, r := range designRules {
		for _, file := range goFiles(t, r.paths) {
			if excepted(r.except, file) || !r.tests && strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				if r.bad.MatchString(sc.Text()) && (r.allow == nil || !r.allow.MatchString(sc.Text())) {
					t.Errorf("%s:%d breaks %q (go doc %s): %s", file, line, r.rule, r.home, strings.TrimSpace(sc.Text()))
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// excepted reports whether file is one of except or lies in a directory
// of it.
func excepted(except []string, file string) bool {
	return slices.ContainsFunc(except, func(e string) bool { return file == e || strings.HasPrefix(file, e+"/") })
}

// goFiles lists the Go files at paths: a file itself, a directory's
// recursively, hidden directories skipped. A path that is gone fails the
// test, so a rule cannot go quiet by a rename.
func goFiles(t *testing.T, paths []string) []string {
	var files []string
	for _, root := range paths {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				files = append(files, filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}
