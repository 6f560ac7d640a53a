#!/usr/bin/env bash
# A/B of TestBenchCell rows between two checkouts, in process:
#
#   internal/cellbench/ab.sh PARENT_DIR ROW...
#
# Builds the cellbench test binary of PARENT_DIR and of this checkout once
# each, then runs PAIRS (default 10) pairs, alternating which side runs
# first (odd pairs the parent). Each run measures only the named rows
# (BENCH_ROWS) and the calibration kernel (calib_ns). Prints, per row, the
# median [Q1, Q3] of each side, the change in the median and the pairs the
# change won (lower ns/op), in CHANGES.md's format. The calib_ns line is
# printed for drift only: the kernel is the same code on both sides, but
# each side's test binary lays it out apart, so its two medians are not
# comparable across binaries, and no row is divided by it. BENCHTIME (default
# 1s, as TestBenchCell) is each row's -test.benchtime; the whole
# SweepJobMaxLocal row runs about 8 ops in 1s. Both checkouts must know
# BENCH_ROWS. Example:
#
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   internal/cellbench/ab.sh /tmp/parent SweepJobMaxLocal SweepJobMaxLocal/extract
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 PARENT_DIR ROW..." >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
shift
change=$(cd "$(dirname "$0")/../.." && pwd)
pairs=${PAIRS:-10}
rows=$(IFS=,; echo "$*")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$parent" && go test -c -o "$work/parent.test" ./internal/cellbench)
(cd "$change" && go test -c -o "$work/change.test" ./internal/cellbench)

run() { # side pair
	BENCH_OUT="$work/$1_$2.json" BENCH_ROWS="$rows" \
		"$work/$1.test" -test.run '^TestBenchCell$' -test.count 1 -test.benchtime "${BENCHTIME:-1s}" >"$work/$1_$2.log" 2>&1 ||
		{ cat "$work/$1_$2.log" >&2; exit 1; }
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
	echo "pair $i/$pairs done" >&2
done

files=()
for side in parent change; do
	for i in $(seq 1 "$pairs"); do files+=("$work/${side}_$i.json"); done
done
jq -rs --argjson n "$pairs" --arg rows "$rows" '
	def q(p): sort as $s | (($s | length) - 1) * p | floor as $i
		| $s[$i] + ((($s | length) - 1) * p - $i) * ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]);
	def fmt: if . >= 100 then (. * 10 | round / 10) else (. * 1000 | round / 1000) end | tostring;
	def line(name; p; c; unit):
		"\(name): \(p | q(0.5) | fmt) [\(p | q(0.25) | fmt), \(p | q(0.75) | fmt)] → \(c | q(0.5) | fmt) [\(c | q(0.25) | fmt), \(c | q(0.75) | fmt)] \(unit) (\((c | q(0.5)) / (p | q(0.5)) * 100 - 100 | . * 10 | round / 10 | tostring | sub("^-"; "−"))%, \((p | q(0.5)) / (c | q(0.5)) * 100 | round / 100)×), \([range($n) | select(c[.] < p[.])] | length)/\($n) pairs faster";
	.[:$n] as $p | .[$n:] as $c
	| ($rows | split(",")[] as $r
		| if any($p[], $c[]; .benchmarks[$r] == null) then error("row \($r) was not measured") else . end
		| line($r; [$p[].benchmarks[$r].ns_per_op]; [$c[].benchmarks[$r].ns_per_op]; "ns/op")),
	  line("calib_ns"; [$p[].calib_ns]; [$c[].calib_ns]; "ns")
' "${files[@]}"
