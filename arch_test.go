package ncg_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestArch holds the repository's one-path rules: where a kind of code
// may live, checked on the syntax of the files each rule guards. Every
// rule runs on the tree, which must satisfy it, and on its planted
// violation under testdata/arch/<rule>/, where it must report exactly the
// lines marked "// want". The log carries the sizes CHANGES.md entries
// quote as before/after: go test -run TestArch -v .
func TestArch(t *testing.T) {
	tree := loadTree(t, ".")
	logSizes(t, tree)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.check(tree) {
				t.Errorf("%s", f)
			}
			plant := loadTree(t, filepath.Join("testdata", "arch", r.name))
			want := plant.wants()
			if len(want) == 0 {
				t.Fatal("the plant marks no line // want")
			}
			got := map[string]bool{}
			for _, f := range r.check(plant) {
				got[f.at()] = true
			}
			for _, at := range sortedKeys(want) {
				if !got[at] {
					t.Errorf("planted violation at %s not reported", at)
				}
			}
			for _, at := range sortedKeys(got) {
				if !want[at] {
					t.Errorf("%s reported but not planted", at)
				}
			}
		})
	}
}

var archRules = []struct {
	name  string // testdata/arch/<name> holds the planted violation
	check func(*tree) []finding
}{
	{"peer-client", onePeerClient},
	{"traversal", oneTraversalKernel},
	{"graph-goroutines", noGraphGoroutines},
	{"spill", spillByAppend},
	{"framer", oneFramer},
	{"line-codec", oneLineCodec},
	{"sweep-call-site", oneSweepCallSite},
	{"capability-checks", noCapabilityChecks},
	{"resumable-runner", oneResumableRunner},
	{"executor-stack", oneExecutorStack},
	{"one-logger", oneLogger},
	{"one-assembly", oneAssembly},
	{"one-clock", oneClock},
	{"one-fake-clock", oneFakeClock},
	{"one-responder-assembly", oneResponderAssembly},
}

// onePeerClient: one peer client, with no second HTTP client, transport
// or Retry-After loop. Every daemon-to-daemon call goes through
// internal/sweepd/peerclient.go; a client or transport literal, or a
// retryAfter anywhere else, is a second path.
func onePeerClient(tr *tree) (out []finding) {
	scope := nonTest(in("internal/sweepd", "cmd/ncg-server"), "internal/sweepd/peerclient.go")
	tr.inspect(scope, func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if name := f.qualified(n.Type, "net/http"); name == "Client" || name == "Transport" {
				out = append(out, tr.find(n, "http.%s literal outside peerclient.go", name))
			}
		case *ast.Ident:
			if n.Name == "retryAfter" {
				out = append(out, tr.find(n, "retryAfter outside peerclient.go"))
			}
		}
	})
	return out
}

// oneTraversalKernel: one traversal kernel, with no second BFS loop in
// internal/graph. Scratch.visit is the private step of Scratch.bfs
// (scratch.go), the one breadth-first loop every traversal wraps;
// Girth's parent-tracking search is the only other loop on a queue head
// the package may hold.
func oneTraversalKernel(tr *tree) (out []finding) {
	var loops []finding
	tr.inspect(nonTest(in("internal/graph")), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "visit" && f.path != "internal/graph/scratch.go" {
				out = append(out, tr.find(n.Sel, ".visit outside scratch.go"))
			}
		case *ast.ForStmt:
			if mentions(n.Init, "head") || mentions(n.Cond, "head") || mentions(n.Post, "head") {
				loops = append(loops, tr.find(n, "for loop on a queue head"))
			}
		}
	})
	return append(out, atMost(2, loops)...)
}

// noGraphGoroutines: no goroutines in internal/graph; the all-pairs
// fan-out does not come back. PowerStep (powers.go) is the package's one
// all-pairs kernel and runs on the calling goroutine, like every
// traversal: a sweep worker holds one gate token and one core.
// Parallelism is the caller's decision.
func noGraphGoroutines(tr *tree) (out []finding) {
	tr.inspect(nonTest(in("internal/graph")), func(f *goFile, n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, tr.find(g, "go statement in internal/graph"))
		}
	})
	return out
}

// spillByAppend: spill by append; no per-cell file is created on the
// emit path. The cache's disk tier is one segment per kernel, appended to
// in place; a temp file or a rename in cache.go is a second layout.
func spillByAppend(tr *tree) (out []finding) {
	tr.inspect(nonTest(in("internal/sweepd/cache.go")), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "CreateTemp" {
				out = append(out, tr.find(n, "CreateTemp in cache.go"))
			}
		case *ast.SelectorExpr:
			if f.qualified(n, "os") == "Rename" {
				out = append(out, tr.find(n, "os.Rename in cache.go"))
			}
		}
	})
	return out
}

// oneFramer: one framer, with no second newline scan over checkpoint
// bytes. ncgio.Lines is the framing rule of checkpoint-format bytes (what
// a record is, what a torn tail is); the peer-lease stream in shard.go
// reads line by line because a blank line there is a heartbeat. A
// newline scan anywhere else is a second framer.
func oneFramer(tr *tree) (out []finding) {
	scope := nonTest(in("internal", "cmd"), "internal/ncgio", "internal/sweepd/shard/shard.go")
	tr.inspect(scope, func(f *goFile, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch name := callee(call); name {
		case "IndexByte", "LastIndexByte", "ReadBytes", "ReadSlice", "ReadString":
			for _, arg := range call.Args {
				if isNewline(arg) {
					out = append(out, tr.find(call, "%s on a newline outside internal/ncgio", name))
				}
			}
		}
	})
	return out
}

// oneLineCodec: one line codec; encoding/json reads the hand-editable
// state file and nothing else. Cell-result and trajectory lines, on disk
// and on a lease stream, are written and scanned by the pair in
// internal/ncgio/codec.go, which decodes canonical bytes only. The reflection codec survives as the
// test oracle (oracle_test.go) and as DecodeState's lenient reader in
// ncgio.go; an encoding/json import in another non-test file of the
// package is a second codec.
func oneLineCodec(tr *tree) (out []finding) {
	scope := nonTest(in("internal/ncgio"), "internal/ncgio/ncgio.go")
	tr.inspect(scope, func(f *goFile, n ast.Node) {
		if imp, ok := n.(*ast.ImportSpec); ok && importPath(imp) == "encoding/json" {
			out = append(out, tr.find(imp, "encoding/json imported outside ncgio.go"))
		}
	})
	return out
}

// oneSweepCallSite: one sweep call site, one way from a cell to a
// checkpoint or lease line. Manager.sweepLines (runner.go) is the only
// caller of dynamics.SweepContext under internal/sweepd: runJob and
// ServeLease are that call with two emitters. A cache hit is appended as
// the cached bytes and a resumed cell is skipped by index, so the runner
// decodes no result line itself (Spec.canonicalPrefix validates what
// resume keeps).
func oneSweepCallSite(tr *tree) (out []finding) {
	var sites []finding
	tr.inspect(nonTest(in("internal/sweepd")), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if f.qualified(n, dynamicsPath) == "SweepContext" {
				sites = append(sites, tr.find(n, "dynamics.SweepContext"))
			}
		case *ast.Ident:
			if n.Name == "UnmarshalCellResult" && f.path == "internal/sweepd/runner.go" {
				out = append(out, tr.find(n, "runner.go decodes a result line"))
			}
		}
	})
	return append(out, exactly(1, sites, "dynamics.SweepContext")...)
}

// noCapabilityChecks: no capability checks on the cluster; one
// consumer-side interface per consumer. Every daemon wires a
// cluster.Registry, which is all of sweepd.Cluster, sched.Cluster and
// shard.PeerSource; asking a cluster value at run time whether it is
// also something else is a branch no daemon takes. Test files are held to
// it too.
func noCapabilityChecks(tr *tree) (out []finding) {
	capability := func(typ ast.Expr) {
		if name := typeName(typ); name != "" {
			out = append(out, tr.find(typ, "run-time check for %s", name))
		}
	}
	tr.inspect(in("internal", "cmd"), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				capability(n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, typ := range c.(*ast.CaseClause).List {
					capability(typ)
				}
			}
		}
	})
	return out
}

// typeName names typ when it is one of the cluster's capability
// interfaces, or an anonymous interface asking for Self.
func typeName(typ ast.Expr) string {
	switch typ := typ.(type) {
	case *ast.SelectorExpr:
		return typeName(typ.Sel)
	case *ast.Ident:
		switch typ.Name {
		case "LeaseTable", "ReplicaTable", "Membership", "FailureReporter", "failureReporter":
			return typ.Name
		}
	case *ast.InterfaceType:
		for _, m := range typ.Methods.List {
			for _, name := range m.Names {
				if name.Name == "Self" {
					return "interface{ Self }"
				}
			}
		}
	}
	return ""
}

// oneResumableRunner: one resumable runner; the figure drivers run,
// checkpoint and resume nothing themselves. A driver's sweep is a
// sweepd.Spec submitted to the in-process Manager that experiments.Open
// wires (runner.go): naming, resume, sharing and caching are the
// daemon's. A direct engine sweep, a checkpoint writer or a hashed file
// name here is a second runner.
func oneResumableRunner(tr *tree) (out []finding) {
	tr.inspect(nonTest(in("internal/experiments", "cmd/ncg-experiments")), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if importPath(n) == "hash/fnv" {
				out = append(out, tr.find(n, "hash/fnv in a figure driver"))
			}
		case *ast.Ident:
			if n.Name == "NewCheckpointWriter" {
				out = append(out, tr.find(n, "checkpoint writer in a figure driver"))
			}
		case *ast.SelectorExpr:
			if name := f.qualified(n, dynamicsPath); strings.HasPrefix(name, "Sweep") {
				out = append(out, tr.find(n, "dynamics.%s in a figure driver", name))
			}
		}
	})
	return out
}

// oneExecutorStack: one executor stack, the local pool and the lease
// pool, with nothing wrapped around them. Manager.sweepLines hands
// dynamics.SweepContext the executor executorFor chose:
// dynamics.LocalExecutor or shard's executor. The in-flight dedup wrapper
// was a third, deleted when no listed workload ever coalesced a cell; a
// new wrapper needs a workload that uses it.
func oneExecutorStack(tr *tree) []finding {
	var impls []finding
	tr.inspect(nonTest(in("internal", "cmd")), func(f *goFile, n ast.Node) {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "Execute" {
			return
		}
		params := paramTypes(fn.Type)
		if len(params) != 2 || f.qualified(params[0], "context") != "Context" {
			return
		}
		if isIdent(params[1], "ExecRequest") || f.qualified(params[1], dynamicsPath) == "ExecRequest" {
			impls = append(impls, tr.find(fn.Name, "Execute(context.Context, ExecRequest) method"))
		}
	})
	return exactly(2, impls, "Execute(context.Context, ExecRequest) method")
}

// oneLogger: one logger, log/slog's default. A daemon diagnostic is a
// record with a constant message and the attributes an operator filters
// by (member, job, generation, owner, err), and cmd/ncg-server installs
// the one JSON handler its records go through. A log import is a second,
// free-text sink; a func(string, ...any) field is a Logf option, a sink
// per component that each binary has to wire by hand.
func oneLogger(tr *tree) (out []finding) {
	tr.inspect(nonTest(in("internal/sweepd", "cmd/ncg-server")), func(f *goFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if importPath(n) == "log" {
				out = append(out, tr.find(n, "log imported; log through log/slog"))
			}
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if isLogfType(field.Type) {
					out = append(out, tr.find(field, "func(string, ...any) field; log through log/slog"))
				}
			}
		}
	})
	return out
}

// oneAssembly: one daemon assembly. internal/sweepd/node wires the
// membership registry, lease pool, replicator and scheduler, for
// cmd/ncg-server and the end-to-end tests alike; a second non-test call
// to one of their constructors is a second assembly, free to drift from
// the first. bench/ keeps its own copy until ROADMAP direction 1(b) moves
// the benchmark onto node.New. Test rigs that wire part of a daemon on
// purpose (shard's passive registry) are test files.
func oneAssembly(tr *tree) (out []finding) {
	constructors := map[string]string{
		"repro/internal/sweepd/cluster": "New",
		"repro/internal/sweepd/sched":   "New",
		"repro/internal/sweepd/shard":   "NewFromSource",
		"repro/internal/sweepd":         "NewReplicator",
	}
	everywhere := func(*goFile) bool { return true }
	tr.inspect(nonTest(everywhere, "internal/sweepd/node", "bench"), func(f *goFile, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		for pkg, name := range constructors {
			if f.qualified(sel, pkg) == name {
				out = append(out, tr.find(sel, "%s.%s outside internal/sweepd/node", path.Base(pkg), name))
			}
		}
	})
	return out
}

// oneClock: one clock for the whole daemon. sweepd.Time (clock.go)
// stamps jobs, replicas, members and leases and paces TTL GC, the rate
// limiter, the follow drain, both streams' keep-alives, PeerClient's
// retry wait, the registry's probe loop, the lease watchdog and the
// scheduler, so a test that moves it moves them all. A wall-clock read or
// timer in any other non-test file under internal/sweepd is a second
// clock. The store is out of scope.
func oneClock(tr *tree) (out []finding) {
	scope := nonTest(in("internal/sweepd"), "internal/sweepd/clock.go", "internal/sweepd/store")
	tr.inspect(scope, func(f *goFile, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch name := f.qualified(sel, "time"); name {
		case "Now", "Since", "Until", "NewTicker", "NewTimer", "After", "AfterFunc", "Tick":
			out = append(out, tr.find(sel, "time.%s outside clock.go", name))
		}
	})
	return out
}

// oneFakeClock: one fake clock for the daemon's tests. Every
// clock_test.go under internal/sweepd is internal/sweepd's below its
// package clause: the copies cannot share a package (the file's doc says
// why), so they are kept equal instead. The first line where a copy
// drifts is reported.
func oneFakeClock(tr *tree) (out []finding) {
	var ref *goFile
	var copies []*goFile
	for _, f := range tr.files {
		switch {
		case f.path == "internal/sweepd/clock_test.go":
			ref = f
		case in("internal/sweepd")(f) && path.Base(f.path) == "clock_test.go":
			copies = append(copies, f)
		}
	}
	if ref == nil {
		return []finding{{msg: "no internal/sweepd/clock_test.go"}}
	}
	body := func(f *goFile) []string {
		return strings.Split(string(f.src[tr.fset.Position(f.syntax.Name.End()).Offset:]), "\n")
	}
	want := body(ref)
	for _, f := range copies {
		got := body(f)
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				at := token.Position{Filename: f.path, Line: tr.fset.Position(f.syntax.Name.End()).Line + i}
				out = append(out, finding{pos: at, msg: "clock_test.go drifts from internal/sweepd's copy here"})
				break
			}
		}
	}
	return out
}

// oneResponderAssembly: one place writes each move rule.
// internal/dynamics/responders.go builds every responder on its own
// Evaluator, and a run reports the solver work of its responses
// (Result.Scan), so no caller needs an Evaluator of its own to read them.
// A non-test bestresponse.NewEvaluator call outside internal/bestresponse
// and internal/dynamics is a second copy of a rule, free to drift from the
// one a sweep runs.
func oneResponderAssembly(tr *tree) (out []finding) {
	everywhere := func(*goFile) bool { return true }
	tr.inspect(nonTest(everywhere, "internal/bestresponse", "internal/dynamics"), func(f *goFile, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && f.qualified(sel, "repro/internal/bestresponse") == "NewEvaluator" {
			out = append(out, tr.find(sel, "bestresponse.NewEvaluator outside internal/dynamics"))
		}
	})
	return out
}

// isLogfType reports whether typ is func(string, ...any) or
// func(string, ...interface{}), parameter names aside.
func isLogfType(typ ast.Expr) bool {
	fn, ok := typ.(*ast.FuncType)
	if !ok || fn.Results != nil {
		return false
	}
	params := paramTypes(fn)
	if len(params) != 2 || !isIdent(params[0], "string") {
		return false
	}
	rest, ok := params[1].(*ast.Ellipsis)
	if !ok {
		return false
	}
	empty, ok := rest.Elt.(*ast.InterfaceType)
	return isIdent(rest.Elt, "any") || ok && len(empty.Methods.List) == 0
}

const dynamicsPath = "repro/internal/dynamics"

// A tree is the Go files under a root, parsed: the repository, or one
// rule's plant.
type tree struct {
	fset  *token.FileSet
	files []*goFile
}

type goFile struct {
	path    string // slash-separated, relative to the root
	test    bool
	lines   int
	src     []byte
	syntax  *ast.File
	imports map[string]string // local name → import path
}

// loadTree parses every file of every package under root, skipping what
// the go tool skips: testdata and directories named with a leading dot or
// underscore. A file a build constraint excludes is still read.
func loadTree(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		for _, names := range [][]string{pkg.GoFiles, pkg.CgoFiles, pkg.IgnoredGoFiles, pkg.TestGoFiles, pkg.XTestGoFiles} {
			for _, name := range names {
				if err := tr.parse(root, filepath.Join(dir, name)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *tree) parse(root, name string) error {
	src, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, name)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	syntax, err := parser.ParseFile(tr.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	f := &goFile{
		path:    rel,
		test:    strings.HasSuffix(rel, "_test.go"),
		lines:   strings.Count(string(src), "\n"),
		src:     src,
		syntax:  syntax,
		imports: map[string]string{},
	}
	for _, imp := range syntax.Imports {
		name := path.Base(importPath(imp))
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imports[name] = importPath(imp)
	}
	tr.files = append(tr.files, f)
	return nil
}

// inspect calls visit on every node of every file in scope.
func (tr *tree) inspect(scope func(*goFile) bool, visit func(*goFile, ast.Node)) {
	for _, f := range tr.files {
		if scope(f) {
			ast.Inspect(f.syntax, func(n ast.Node) bool {
				if n != nil {
					visit(f, n)
				}
				return true
			})
		}
	}
}

// wants is the set of file:line positions a plant marks "// want".
func (tr *tree) wants() map[string]bool {
	want := map[string]bool{}
	for _, f := range tr.files {
		for _, g := range f.syntax.Comments {
			for _, c := range g.List {
				if strings.HasPrefix(c.Text, "// want") {
					want[finding{pos: tr.fset.Position(c.Pos())}.at()] = true
				}
			}
		}
	}
	return want
}

// A finding is one violation of a rule. A rule that counts sites reports
// a missing site with no position.
type finding struct {
	pos token.Position
	msg string
}

func (tr *tree) find(n ast.Node, format string, args ...any) finding {
	return finding{pos: tr.fset.Position(n.Pos()), msg: fmt.Sprintf(format, args...)}
}

func (f finding) at() string { return fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line) }

func (f finding) String() string { return f.at() + ": " + f.msg }

// exactly reports every site unless there are n of them.
func exactly(n int, sites []finding, what string) []finding {
	if len(sites) == n {
		return nil
	}
	if len(sites) == 0 {
		return []finding{{msg: fmt.Sprintf("no %s, want %d", what, n)}}
	}
	return recount(sites, fmt.Sprintf("want %d", n))
}

// atMost reports every site when there are more than n of them.
func atMost(n int, sites []finding) []finding {
	if len(sites) <= n {
		return nil
	}
	return recount(sites, fmt.Sprintf("want at most %d", n))
}

func recount(sites []finding, want string) []finding {
	out := make([]finding, len(sites))
	for i, s := range sites {
		out[i] = finding{pos: s.pos, msg: fmt.Sprintf("%s: one of %d, %s", s.msg, len(sites), want)}
	}
	return out
}

// in is the scope of the files at or under any of paths.
func in(paths ...string) func(*goFile) bool {
	return func(f *goFile) bool {
		for _, p := range paths {
			if f.path == p || strings.HasPrefix(f.path, p+"/") {
				return true
			}
		}
		return false
	}
}

// nonTest narrows scope to its non-test files outside the exempt paths.
func nonTest(scope func(*goFile) bool, exempt ...string) func(*goFile) bool {
	return func(f *goFile) bool { return !f.test && scope(f) && !in(exempt...)(f) }
}

// qualified names the member x.Name refers to when e is x.Name and x is
// the file's import of pkg, whatever the import calls it.
func (f *goFile) qualified(e ast.Expr, pkg string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] == pkg {
		return sel.Sel.Name
	}
	return ""
}

func importPath(imp *ast.ImportSpec) string {
	p, _ := strconv.Unquote(imp.Path.Value)
	return p
}

// callee names the function or method a call invokes.
func callee(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// paramTypes lists a function type's parameter types, one per parameter:
// func(a, b int) is [int int].
func paramTypes(fn *ast.FuncType) []ast.Expr {
	var types []ast.Expr
	for _, p := range fn.Params.List {
		for range max(1, len(p.Names)) {
			types = append(types, p.Type)
		}
	}
	return types
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isNewline(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok || (lit.Kind != token.CHAR && lit.Kind != token.STRING) {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	return err == nil && s == "\n"
}

// mentions reports whether name appears in n, which may be nil.
func mentions(n ast.Node, name string) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// logSizes logs the sizes the round's "fewer lines, fewer seams" aim is
// held against:
//   - non-test Go lines outside bench/, and the share under internal/sweepd;
//   - exported funcs, methods and types declared under internal/sweepd,
//     and under the rest of internal/;
//   - non-test lines in *reference*.go files. Executable specifications
//     belong behind the test boundary, so this reads 0;
//   - README.md's lines;
//   - time.Sleep calls in the tests under internal/sweepd and cmd, the
//     daemon's and the binaries' waits on the wall clock.
func logSizes(t *testing.T, tr *tree) {
	var lines, sweepdLines, sweepdExported, otherExported, referenceLines, sleeps int
	tr.inspect(in("internal/sweepd", "cmd"), func(f *goFile, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && f.test && f.qualified(call.Fun, "time") == "Sleep" {
			sleeps++
		}
	})
	for _, f := range tr.files {
		if f.test || in("bench")(f) {
			continue
		}
		lines += f.lines
		if strings.Contains(path.Base(f.path), "reference") {
			referenceLines += f.lines
		}
		switch {
		case in("internal/sweepd")(f):
			sweepdLines += f.lines
			sweepdExported += exported(f.syntax)
		case in("internal")(f):
			otherExported += exported(f.syntax)
		}
	}
	t.Logf("non-test non-bench Go lines: %d", lines)
	t.Logf("  of which internal/sweepd:  %d", sweepdLines)
	t.Logf("exported funcs/methods/types under internal/sweepd: %d", sweepdExported)
	t.Logf("exported funcs/methods/types under internal/ outside sweepd: %d", otherExported)
	t.Logf("non-test lines in *reference*.go: %d", referenceLines)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("README.md lines: %d", strings.Count(string(readme), "\n"))
	t.Logf("time.Sleep calls in tests under internal/sweepd and cmd: %d", sleeps)
}

// exported counts a file's exported funcs, methods and types.
func exported(f *ast.File) int {
	n := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					n++
				}
			}
		}
	}
	return n
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
