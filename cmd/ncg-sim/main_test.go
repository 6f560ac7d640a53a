package main

// End-to-end test of the real ncg-sim process: a run's whole stdout, the
// trajectory table and the outcome line with the exact MAX scan's counts,
// is pinned byte for byte.

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ncg-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args string
		want string
	}{
		{"-n 30 -alpha 1 -k 3 -graph tree -seed 1", `MAXNCG dynamics: n=30 α=1 k=3 graph=tree seed=1

Trajectory
| round | moves | diameter | social cost | quality | max degree | max bought |
| ----- | ----- | -------- | ----------- | ------- | ---------- | ---------- |
| 1     | 3     | 13       | 346         | 3.932   | 4          | 2          |
| 2     | 0     | 13       | 346         | 3.932   | 4          | 2          |

outcome: converged after 2 rounds, 3 total moves; 42 responder calls, 122 solves, 0 out of search budget
final: diameter=13 social=346.0 quality=3.932 unfairness=2.000 min/avg view=4/9.2
`},
		{"-n 30 -alpha 1 -k 1000 -graph gnp -seed 2", `MAXNCG dynamics: n=30 α=1 k=1000 graph=gnp seed=2

Trajectory
| round | moves | diameter | social cost | quality | max degree | max bought |
| ----- | ----- | -------- | ----------- | ------- | ---------- | ---------- |
| 1     | 26    | 6        | 175         | 1.989   | 11         | 3          |
| 2     | 18    | 4        | 123         | 1.398   | 24         | 3          |
| 3     | 2     | 4        | 121         | 1.375   | 26         | 3          |
| 4     | 0     | 4        | 121         | 1.375   | 26         | 3          |

outcome: converged after 4 rounds, 46 total moves; 100 responder calls, 417 solves, 0 out of search budget
final: diameter=4 social=121.0 quality=1.375 unfairness=2.000 min/avg view=30/30.0
`},
		// SUM runs no dominating-set scan, so its outcome line has no counts.
		{"-variant sum -n 14 -alpha 0.1 -k 2 -seed 1", `SUMNCG dynamics: n=14 α=0.1 k=2 graph=tree seed=1

Trajectory
| round | moves | diameter | social cost | quality | max degree | max bought |
| ----- | ----- | -------- | ----------- | ------- | ---------- | ---------- |
| 1     | 14    | 2        | 213.900     | 1.119   | 13         | 10         |
| 2     | 3     | 1        | 191.100     | 1.000   | 13         | 10         |
| 3     | 0     | 1        | 191.100     | 1.000   | 13         | 10         |

outcome: converged after 3 rounds, 17 total moves
final: diameter=1 social=191.1 quality=1.000 unfairness=1.061 min/avg view=14/14.0
`},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("ncg-sim %s: %v\n%s", c.args, err, stderr.String())
		}
		if got := stdout.String(); got != c.want {
			t.Errorf("ncg-sim %s printed\n%s\nwant\n%s", c.args, got, c.want)
		}
	}
}
