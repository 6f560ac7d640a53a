#!/usr/bin/env bash
# Prints the two sizes ROADMAP's "fewer lines, fewer seams" aim is held
# against, so a PR states its before/after from the same command:
#   (i)  non-test Go lines outside bench/, and the share under internal/sweepd
#   (ii) exported funcs, methods and types declared under internal/sweepd
# Run from anywhere; informational (always exits 0 on a readable tree).
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$1" -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | wc -l; }

echo "non-test non-bench Go lines: $(lines .)"
echo "  of which internal/sweepd:  $(lines ./internal/sweepd)"
echo "exported funcs/methods/types under internal/sweepd: $(
  find ./internal/sweepd -name '*.go' -not -name '*_test.go' -print0 |
    xargs -0 grep -hE '^(func (\([^)]*\) )?[A-Z]|type [A-Z])' | wc -l)"
