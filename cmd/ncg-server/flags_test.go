package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/sweepd/node"
)

// TestReadmeFlagTable: the README's flag table lists exactly newFlagSet's
// flags, each with its default. A Default cell is read the way the flag
// reads a value (`24h` is 24h0m0s); _(none)_ is the empty default. The
// table's rows are the lines between its header and the next blank line.
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Flag | Default | What it does |\n")
	if !ok {
		t.Fatal("README has no flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := make(map[string]string)
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the | --- | rule
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag row %q", line)
		}
		def := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if def == "_(none)_" {
			def = ""
		}
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`-")] = def
	}

	cfg := node.DefaultConfig()
	fs, _ := newFlagSet(&cfg)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := rows[f.Name]
		if !ok {
			t.Errorf("the README's flag table has no -%s", f.Name)
			return
		}
		delete(rows, f.Name)
		fresh := node.DefaultConfig()
		set, _ := newFlagSet(&fresh)
		if err := set.Set(f.Name, def); err != nil {
			t.Errorf("-%s: README default %q: %v", f.Name, def, err)
		} else if got := set.Lookup(f.Name).Value.String(); got != f.DefValue {
			t.Errorf("-%s: README default %q reads as %q, the flag's default is %q", f.Name, def, got, f.DefValue)
		}
	})
	for name := range rows {
		t.Errorf("the README lists -%s, which ncg-server does not define", name)
	}
}
