package sweepd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeEndpointTable: the README's endpoint table lists exactly the
// routes buildHandler registers, read off server.go's
// mux.HandleFunc("<METHOD> <path>", …) calls. A row with a query
// (?follow=1, ?purge=1) documents a mode of its route, not a route.
func TestReadmeEndpointTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	routes := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "HandleFunc" || len(call.Args) != 2 {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "mux" {
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
	t.Logf("buildHandler registers %d routes", len(routes))

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Endpoint | What it does |\n")
	if !ok {
		t.Fatal("README has no endpoint table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := make(map[string]bool)
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the | --- | rule
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			t.Fatalf("malformed endpoint row %q", line)
		}
		route, _, _ := strings.Cut(strings.Trim(strings.TrimSpace(cells[1]), "`"), "?")
		rows[route] = true
	}

	for r := range routes {
		if !rows[r] {
			t.Errorf("the README's endpoint table has no %s", r)
		}
	}
	for r := range rows {
		if !routes[r] {
			t.Errorf("the README lists %s, which buildHandler does not register", r)
		}
	}
}
