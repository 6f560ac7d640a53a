package ncg_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestReadme holds README.md's tables to the code they describe, and the
// commands to what the README says of their input. It builds ./cmd/...
// once. A README table is the run of lines starting with "|" under a
// header row; its first header cell names it:
//   - "`<command>` flag": every flag <command> -h lists, with its default,
//     for each directory under cmd/;
//   - "Endpoint": the routes internal/sweepd/server.go registers;
//   - "Metric": every /metrics family's name, type and help text, as
//     internal/sweepd/testdata/metrics.golden has them (TestMetricsGolden
//     pins that file to the handler).
func TestReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := readmeTables(t, string(readme))
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flags", func(t *testing.T) {
		listed := make(map[string]bool)
		for _, c := range cmds {
			key := "`" + c.Name() + "` flag"
			listed[key] = true
			t.Run(c.Name(), func(t *testing.T) {
				rows, ok := tables[key]
				if !ok {
					t.Fatalf("the README has no %s table", key)
				}
				checkFlagTable(t, rows, helpFlags(t, filepath.Join(bin, c.Name())))
			})
		}
		for key := range tables {
			if strings.HasSuffix(key, "` flag") && !listed[key] {
				t.Errorf("the README has a %s table, and cmd/ has no such command", key)
			}
		}
	})

	t.Run("endpoints", func(t *testing.T) {
		rows, ok := tables["Endpoint"]
		if !ok {
			t.Fatal("the README has no endpoint table")
		}
		listed := make(map[string]bool)
		for _, row := range rows {
			// A row with a query (?follow=1, ?purge=1) documents a mode of
			// its route, not a route.
			route, _, _ := strings.Cut(strings.Trim(row[0], "`"), "?")
			listed[route] = true
		}
		sameKeys(t, "routes", serverRoutes(t), listed)
	})

	t.Run("metrics", func(t *testing.T) {
		rows, ok := tables["Metric"]
		if !ok {
			t.Fatal("the README has no metrics table")
		}
		listed := make(map[string]bool)
		golden := goldenFamilies(t)
		for _, row := range rows {
			if len(row) != 3 {
				t.Fatalf("metrics row %q: want name, type, help", row)
			}
			name := strings.Trim(row[0], "`")
			listed[name] = true
			if f, ok := golden[name]; ok && (row[1] != f.typ || row[2] != f.help) {
				t.Errorf("%s: README says %s %q, metrics.golden says %s %q", name, row[1], row[2], f.typ, f.help)
			}
		}
		families := make(map[string]bool)
		for name := range golden {
			families[name] = true
		}
		sameKeys(t, "metric families", families, listed)
	})

	// Out-of-range input exits 1 with one stderr line and no stdout,
	// before any work: a panic or a sentinel printed as data is a failure.
	t.Run("refused-input", func(t *testing.T) {
		for _, c := range []struct {
			cmd  string
			args []string
			want string
		}{
			{"ncg-sim", []string{"-n", "0"}, "bad -n 0: need n ≥ 2"},
			{"ncg-sim", []string{"-n", "-3"}, "bad -n -3: need n ≥ 2"},
			{"ncg-sim", []string{"-n", "1"}, "bad -n 1: need n ≥ 2"},
			{"ncg-sim", []string{"-graph", "cycle", "-n", "2"}, "bad -n 2: -graph cycle needs n ≥ 3"},
			{"ncg-sim", []string{"-k", "0"}, "bad -k 0: need k ≥ 1"},
			{"ncg-sim", []string{"-alpha", "-1"}, "bad -alpha -1: need α > 0"},
			{"ncg-sim", []string{"-alpha", "0"}, "bad -alpha 0: need α > 0"},
			{"ncg-sim", []string{"-graph", "gnp", "-p", "2"}, "bad -p 2: -graph gnp needs 0 < p ≤ 1"},
			{"ncg-sim", []string{"-graph", "gnp", "-p", "0"}, "bad -p 0: -graph gnp needs 0 < p ≤ 1"},
			{"ncg-sim", []string{"-variant", "min"}, `unknown -variant "min"; valid: max sum`},
			{"ncg-sim", []string{"-graph", "grid"}, `unknown -graph "grid"; valid: tree gnp path cycle star`},
			{"ncg-bounds", []string{"-n", "0"}, "bad -n 0: need n ≥ 2"},
			{"ncg-bounds", []string{"-n", "-5"}, "bad -n -5: need n ≥ 2"},
			{"ncg-bounds", []string{"-game", "min"}, `unknown -game "min"; valid: max sum both`},
		} {
			var stdout, stderr strings.Builder
			cmd := exec.Command(filepath.Join(bin, c.cmd), c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 ||
				strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("%s %v: err %v, stdout %d bytes, stderr %q; want exit 1, no stdout, one line with %q",
					c.cmd, c.args, err, stdout.Len(), stderr.String(), c.want)
			}
		}
	})
}

// readmeTables returns README's tables by their first header cell, each
// as its body rows of trimmed cells.
func readmeTables(t *testing.T, readme string) map[string][][]string {
	tables := make(map[string][][]string)
	lines := strings.Split(readme, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") {
			continue
		}
		header := cells(lines[i])
		if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "| ---") {
			t.Fatalf("README line %d: a table header with no | --- | rule under it", i+1)
		}
		if _, dup := tables[header[0]]; dup {
			t.Fatalf("README line %d: a second table headed %q", i+1, header[0])
		}
		var rows [][]string
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			rows = append(rows, cells(lines[i]))
		}
		tables[header[0]] = rows
	}
	return tables
}

// cells splits a table row into its trimmed cells. No cell of README's
// tables holds a pipe.
func cells(row string) []string {
	row = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(row), "|"), "|")
	out := strings.Split(row, "|")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

// helpFlag is one flag as a command's -h prints it: its type name ("" for
// a bool) and its default.
type helpFlag struct{ typ, def string }

var defaultSuffix = regexp.MustCompile(` \(default (.*)\)$`)

// helpFlags reads the flags a built command lists under -h. The flag
// package prints a default only when it is not its type's zero value.
func helpFlags(t *testing.T, bin string) map[string]helpFlag {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", bin, err, out)
	}
	zero := map[string]string{"": "false", "int": "0", "float": "0", "duration": "0s", "string": ""}
	flags := make(map[string]helpFlag)
	var name string
	var usage strings.Builder
	flush := func() {
		if name == "" {
			return
		}
		f := flags[name]
		f.def = zero[f.typ]
		if m := defaultSuffix.FindStringSubmatch(usage.String()); m != nil {
			f.def = m[1]
			if f.typ == "string" {
				def, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("-%s: default %s: %v", name, m[1], err)
				}
				f.def = def
			}
		}
		flags[name] = f
		usage.Reset()
	}
	for _, line := range strings.Split(string(out), "\n") {
		if head, ok := strings.CutPrefix(line, "  -"); ok {
			flush()
			head, rest, _ := strings.Cut(head, "\t")
			fields := strings.Fields(head)
			name = fields[0]
			flags[name] = helpFlag{typ: strings.Join(fields[1:], " ")}
			usage.WriteString(rest)
		} else if more, ok := strings.CutPrefix(line, "    \t"); ok {
			usage.WriteString("\n" + more)
		}
	}
	flush()
	if len(flags) == 0 {
		t.Fatalf("%s -h lists no flags:\n%s", bin, out)
	}
	return flags
}

// checkFlagTable holds a flag table's rows, | `-name` | `default` | … |,
// to the flags -h lists. A Default cell is read as the flag reads a value
// (`24h` is 24h0m0s); _(none)_ is the empty string.
func checkFlagTable(t *testing.T, rows [][]string, flags map[string]helpFlag) {
	listed := make(map[string]bool)
	for _, row := range rows {
		if len(row) < 3 {
			t.Fatalf("flag row %q: want flag, default, what it does", row)
		}
		name := strings.TrimPrefix(strings.Trim(row[0], "`"), "-")
		listed[name] = true
		f, ok := flags[name]
		if !ok {
			continue
		}
		def := strings.Trim(row[1], "`")
		if def == "_(none)_" {
			def = ""
		}
		got, err := canonical(f.typ, def)
		want, _ := canonical(f.typ, f.def)
		if err != nil || got != want {
			t.Errorf("-%s: README default %q reads as %q (%v), -h says %q", name, def, got, err, f.def)
		}
	}
	names := make(map[string]bool)
	for name := range flags {
		names[name] = true
	}
	sameKeys(t, "flags", names, listed)
}

// canonical spells a flag value of the named type the way the flag
// package prints it.
func canonical(typ, v string) (string, error) {
	switch typ {
	case "":
		b, err := strconv.ParseBool(v)
		return strconv.FormatBool(b), err
	case "int":
		i, err := strconv.ParseInt(v, 10, 64)
		return strconv.FormatInt(i, 10), err
	case "float":
		f, err := strconv.ParseFloat(v, 64)
		return strconv.FormatFloat(f, 'g', -1, 64), err
	case "duration":
		d, err := time.ParseDuration(v)
		return d.String(), err
	}
	return v, nil
}

// serverRoutes reads the patterns of server.go's mux.HandleFunc("<METHOD>
// <path>", …) calls.
func serverRoutes(t *testing.T) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), "internal/sweepd/server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	routes := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "HandleFunc" || !isIdent(sel.X, "mux") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("a route pattern that is not a string literal at %v", call.Pos())
		}
		pattern, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		routes[pattern] = true
		return true
	})
	if len(routes) == 0 {
		t.Fatal("found no mux.HandleFunc routes in server.go")
	}
	return routes
}

// family is one metric family's # TYPE and # HELP.
type family struct{ typ, help string }

// goldenFamilies reads every family's type and help from metrics.golden.
func goldenFamilies(t *testing.T) map[string]family {
	golden, err := os.ReadFile("internal/sweepd/testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	families := make(map[string]family)
	for _, line := range strings.Split(string(golden), "\n") {
		kind, rest, ok := strings.Cut(line, " ")
		if kind != "#" || !ok {
			continue
		}
		kind, rest, _ = strings.Cut(rest, " ")
		name, text, _ := strings.Cut(rest, " ")
		f := families[name]
		switch kind {
		case "HELP":
			f.help = text
		case "TYPE":
			f.typ = text
		}
		families[name] = f
	}
	if len(families) == 0 {
		t.Fatal("metrics.golden has no # HELP or # TYPE lines")
	}
	return families
}

// sameKeys reports what the code has that the README does not list, and
// what the README lists that the code does not have.
func sameKeys(t *testing.T, what string, code, readme map[string]bool) {
	t.Helper()
	for k := range code {
		if !readme[k] {
			t.Errorf("the README's table of %s has no %s", what, k)
		}
	}
	for k := range readme {
		if !code[k] {
			t.Errorf("the README lists %s among the %s, and the code has no such thing", k, what)
		}
	}
}
