package fmnet

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
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
		bad:   regexp.MustCompile(`PollCycle\(|NewFramePool\(|\.Poll\(\)`),
	},
	{
		rule: "one handler table", home: "./internal/flowctl",
		paths: []string{"."}, except: []string{"internal/flowctl", "design_test.go"}, tests: true,
		bad: regexp.MustCompile(`type HandlerID uint16`),
	},
	{
		rule: "one handler table", home: "./internal/flowctl",
		paths: []string{"internal/fm1", "internal/fm2", "internal/xport"},
		bad:   regexp.MustCompile(`map\[(\w+\.)?(HandlerID|uint16|string)\]`),
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
		// A source route, consumed one hop per switch and never pushed to,
		// is a reslice but not a FIFO.
		rule: "one FIFO: sim.Queue", home: "./internal/bufpool",
		paths: []string{"."}, except: []string{"internal/sim/fifo.go", "internal/bufpool"},
		bad:   regexp.MustCompile(`= [\w.]+\[1:\]\s*$|\[:copy\(.*\[1:\]\)\]|compactAt`),
		allow: regexp.MustCompile(`pkt\.Route = pkt\.Route\[1:\]`),
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

// surfaceExceptions are the identifiers TestSurfaceIsUsed lets stand with no
// caller, or a field with no reader, each with its reason. A reason starts
// with "hook:" (a test in another package reads it) or "paper:" (the
// paper's own API).
var surfaceExceptions = map[string]string{
	"alloctest.AllowStray":       "hook: the test-support package's headroom, read by the allocation pins of 11 packages",
	"alloctest.MinMallocs":       "hook: the test-support package's measurement, run by the allocation pins of 11 packages",
	"sim.RaceEnabled":            "hook: tests in 12 packages skip their allocation pins under -race by it",
	"sim.Kernel.Live":            "hook: tests in 5 packages check that every Proc finished (ROADMAP item 22 may retire it)",
	"fm1.Endpoint.Send4":         "paper: FM_send_4, FM 1.x's four-word send (Table 1)",
	"trafficgen.All":             "paper: §2.1's size mixes, swept by BenchmarkRealisticTraffic",
	"trafficgen.Dist.NewSampler": "paper: §2.1's size mixes, drawn by BenchmarkRealisticTraffic and TestFullStackMixedWorkload",
	"trafficgen.Sampler.Sizes":   "paper: §2.1's size mixes, drawn by BenchmarkRealisticTraffic and TestFullStackMixedWorkload",
}

// TestSurfaceIsUsed holds the rule the root package doc states: an exported
// identifier declared in internal/ has a caller, and a struct field has a
// reader. It matches names, not types: a name used anywhere counts, so a
// method reached only through an interface is used when the interface's
// method is called.
func TestSurfaceIsUsed(t *testing.T) {
	type decl struct {
		key        string // pkg.Name, or pkg.Type.Name for a method or field
		id         *ast.Ident
		start, end token.Pos // the declaration; a use inside it is not a caller
		field      bool
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	uses := map[string][]token.Pos{} // name -> uses in caller files
	reads := map[string]bool{}       // name -> read in some file
	for _, file := range goFiles(t, []string{"."}) {
		if strings.Contains(file, "/testdata/") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(file, "_test.go")
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident, n ast.Node, field bool) {
			declIdents[id] = true
			if strings.HasPrefix(file, "internal/") && !test && (id.IsExported() || field) {
				decls = append(decls, decl{key, id, n.Pos(), n.End(), field})
			}
		}
		fields := func(owner string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							declIdents[id] = true
							if fl.Tag == nil {
								add(pkg+"."+owner+"."+id.Name, id, fl, true)
							}
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							declIdents[id] = true
						}
					}
				}
				return true
			})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				add(key, d.Name, d, false)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(pkg+"."+s.Name.Name, s.Name, s, false)
						fields(s.Name.Name, s.Type)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(pkg+"."+id.Name, id, s, false)
						}
					}
				}
			}
		}
		// A field that is the target of an assignment, an increment or a
		// composite literal's key is written there, not read.
		caller := !test || file == "example_test.go"
		writes := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if s, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
						writes[s.Sel] = true
					}
				}
			case *ast.IncDecStmt:
				if s, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					writes[s.Sel] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			case *ast.Ident:
				if declIdents[n] {
					break
				}
				if caller {
					uses[n.Name] = append(uses[n.Name], n.Pos())
				}
				if !writes[n] {
					reads[n.Name] = true
				}
			}
			return true
		})
	}
	flagged, declared := map[string]bool{}, map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := slices.ContainsFunc(uses[d.id.Name], func(p token.Pos) bool { return p < d.start || p >= d.end })
		switch {
		case d.id.IsExported() && !called:
			flagged[d.key] = true
			if surfaceExceptions[d.key] == "" {
				t.Errorf("%s: %s has no caller outside its declaration: delete it, unexport it, or list it in surfaceExceptions (go doc .)", fset.Position(d.id.Pos()), d.key)
			}
		case d.field && !reads[d.id.Name]:
			flagged[d.key] = true
			if surfaceExceptions[d.key] == "" {
				t.Errorf("%s: field %s is never read: delete it, or list it in surfaceExceptions (go doc .)", fset.Position(d.id.Pos()), d.key)
			}
		}
	}
	for key, why := range surfaceExceptions {
		switch {
		case !declared[key]:
			t.Errorf("surfaceExceptions lists %s, which is no longer declared", key)
		case !flagged[key]:
			t.Errorf("surfaceExceptions lists %s, which now has a caller and a reader", key)
		case !strings.HasPrefix(why, "hook:") && !strings.HasPrefix(why, "paper:"):
			t.Errorf("surfaceExceptions' reason for %s starts with neither hook: nor paper:: %q", key, why)
		}
	}
}

// recvName is the type name of a method's receiver.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
