package main

// End-to-end tests of the real ncg-experiments process: the -scale ci
// run is a fixed point of its store, and refused flags end the run
// before any table.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ncg-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tmp := t.TempDir() // the child's TMPDIR, where a plain run keeps its store
	run := func(args ...string) (stdout, stderr string, err error) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}

	t.Run("fixed-point", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "store")
		for _, how := range []struct {
			name string
			args []string
		}{
			{"plain", nil},
			{"fresh store", []string{"-checkpoint", store}},
			{"re-run over the store", []string{"-checkpoint", store}},
		} {
			out, stderr, err := run(append([]string{"-run", "all", "-scale", "ci"}, how.args...)...)
			if err != nil {
				t.Fatalf("%s: %v\n%s", how.name, err, stderr)
			}
			// A change that moves these bytes has changed a cell's result, a
			// base seed, a table's arithmetic or the print order of All.
			const size, sum = 32932, "6308cded6c0c16cfdea2a4adab6c3a3e0a48ef41d2ec49901ce0ab20c1f954f8"
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); len(out) != size || got != sum {
				t.Fatalf("%s: %d bytes with sha256 %s, want %d bytes with %s", how.name, len(out), got, size, sum)
			}
			// Theorem 4.4 fails at one cell (SUM, n = 14, α = 0.1, k = 2):
			// ROADMAP direction 13(b) decides whether the criterion or
			// bestresponse.SumDelta is wrong. Either verdict flipping is news.
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if last := lines[len(lines)-1]; last != "Corollary 3.14 holds: true; Theorem 4.4 holds: false" {
				t.Fatalf("%s: last line %q", how.name, last)
			}
		}
	})

	t.Run("refused-flags", func(t *testing.T) {
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"-run", "fig5", "-seed", "0"}, "seed ≥ 1"},
			{[]string{"-run", "fig5", "-dyn-n", "1"}, "n ≥ 2"},
			{[]string{"-run", "fig5", "-seeds", "-3"}, "bad -seeds -3"},
			{[]string{"-run", "fig5", "-dyn-n", "-5"}, "bad -dyn-n -5"},
		} {
			out, stderr, err := run(c.args...)
			if err == nil || out != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.want) {
				t.Errorf("%v: err %v, stdout %q, stderr %q; want a non-zero exit, no stdout, one line with %q",
					c.args, err, out, stderr, c.want)
			}
		}
	})

	t.Run("unknown-run", func(t *testing.T) {
		out, stderr, err := run("-run", "fig11")
		want := []string{"all"}
		for _, e := range experiments.All {
			want = append(want, e.ID)
		}
		_, listed, _ := strings.Cut(strings.TrimSpace(stderr), "; valid: ")
		if err == nil || out != "" || !slices.Equal(strings.Fields(listed), want) {
			t.Fatalf("err %v, stdout %q, stderr %q; want a non-zero exit listing %v", err, out, stderr, want)
		}
	})

	left, err := filepath.Glob(filepath.Join(tmp, "ncg-experiments-*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temporary stores left behind: %v (%v)", left, err)
	}
}
