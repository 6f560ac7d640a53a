// Command bench is the repository's front-door benchmark: it boots
// in-process ncg-server daemons on loopback HTTP, drives five named
// workloads through POST /sweeps → follow → read, checks every byte it
// gets back, and (with -trace 1) replays the same cells layer by layer
// so each end-to-end number has a per-layer budget under it. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./bench [-workload NAME] [-seed 1] [-seconds 20] [-trace 0|1] [-aa N] [-out bench/out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 1, "derives every spec's base_seed and the job order")
		seconds = flag.Int("seconds", defaultSeconds, "how long the untraced closed loop submits jobs")
		trace   = flag.Int("trace", 0, "1 = traced pass, layer replay and probes: prints the per-layer metrics")
		aa      = flag.Int("aa", 0, "run the end-to-end set N times on seeds seed..seed+N-1 and print each metric's spread")
		out     = flag.String("out", "bench/out", "directory for daemon data (removed after the run) and span JSONL")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	printEnv(os.Stdout, *seed)
	opts := runOpts{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, outDir: *out}
	if *aa > 0 {
		if err := runAA(os.Stdout, selected, opts, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	failed := false
	for i := range selected {
		res, err := runWorkload(&selected[i], opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, res)
		failed = failed || res.failed > 0
		if *name != "" {
			// The driver's contract: one JSON object as the last line.
			printJSON(os.Stdout, res, opts.trace)
		}
	}
	if failed && *name == "" {
		os.Exit(1)
	}
}

// printEnv writes the environment header.
func printEnv(w io.Writer, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

// printResult writes one workload's metrics as "name unit value n", then
// any failures and, for a traced run, the self-time budget per span name.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "## %s\n", res.workload)
	for _, v := range res.values {
		fmt.Fprintf(w, "%s %s %s %d\n", v.name, v.unit, strconv.FormatFloat(v.v, 'g', -1, 64), v.n)
	}
	fmt.Fprintf(w, "failed_share ratio %s %d\n", strconv.FormatFloat(ratio(float64(res.failed), float64(res.attempted)), 'g', -1, 64), res.attempted)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# FAILED: %s\n", n)
	}
	names := make([]string, 0, len(res.self))
	for name := range res.self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# self_ms %s %.3f\n", name, ms(res.self[name]))
	}
}

// printJSON writes the result object the driver reads: exactly the
// manifest's end-to-end metrics untraced, its per-layer metrics traced.
func printJSON(w io.Writer, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, v := range res.values {
		if defined(defs, v.name) {
			metrics[v.name] = metric{Value: v.v, Unit: v.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// runAA runs the untraced set n times, on seeds seed..seed+n-1 as the
// driver does, and prints per metric × workload the min, median, max
// and the quartile spread as a share of the metric's bound.
func runAA(w io.Writer, selected []workload, o runOpts, n int) error {
	o.trace = false
	fmt.Fprintf(w, "# A/A: %d runs per workload; spread = (Q3-Q1)/median\n", n)
	fmt.Fprintln(w, "workload metric unit min median max spread spread/bound failed")
	for i := range selected {
		samples := map[string][]float64{}
		units := map[string]string{}
		var order []string
		failed := 0
		for r := 0; r < n; r++ {
			ro := o
			ro.seed = o.seed + int64(r)
			res, err := runWorkload(&selected[i], ro)
			if err != nil {
				return err
			}
			failed += res.failed
			for _, v := range res.values {
				if _, seen := samples[v.name]; !seen {
					order = append(order, v.name)
				}
				samples[v.name] = append(samples[v.name], v.v)
				units[v.name] = v.unit
			}
		}
		for _, name := range order {
			xs := samples[name]
			spread := quartileSpread(xs)
			ofBound := "-"
			for _, d := range endToEnd {
				if d.name == name {
					ofBound = strconv.FormatFloat(spread/d.bound, 'f', 2, 64)
				}
			}
			fmt.Fprintf(w, "%s %s %s %.4g %.4g %.4g %.4f %s %d\n", selected[i].name, name, units[name],
				quantile(xs, 0), median(xs), quantile(xs, 1), spread, ofBound, failed)
		}
	}
	return nil
}
