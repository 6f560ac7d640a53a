#!/usr/bin/env bash
# Prints the sizes ROADMAP's "fewer lines, fewer seams" aim is held
# against, so a PR states its before/after from the same command:
#   (i)   non-test Go lines outside bench/, and the share under internal/sweepd
#   (ii)  exported funcs, methods and types declared under internal/sweepd,
#         and under the rest of internal/
#   (iii) non-test lines in *reference*.go files: executable specifications
#         belong behind the test boundary, so this reads 0
# Run from anywhere; informational (always exits 0 on a readable tree).
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() { find "$@" -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0; }
lines() { gofiles "$@" | xargs -0 -r cat | wc -l; }
exported() { gofiles "$@" | xargs -0 -r grep -hE '^(func (\([^)]*\) )?[A-Z]|type [A-Z])' | wc -l; }

echo "non-test non-bench Go lines: $(lines .)"
echo "  of which internal/sweepd:  $(lines ./internal/sweepd)"
echo "exported funcs/methods/types under internal/sweepd: $(exported ./internal/sweepd)"
echo "exported funcs/methods/types under internal/ outside sweepd: $(exported ./internal -not -path './internal/sweepd/*')"
echo "non-test lines in *reference*.go: $(lines . -name '*reference*')"
