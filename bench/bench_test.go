package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func toManifest(defs []metricDef) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, d := range defs {
		out[i] = manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}
	}
	return out
}

// TestManifestMatchesBenchmarkJSON keeps the program and its manifest
// from drifting: same workloads, same metrics, same units, directions
// and bounds.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w)
		}
	}
	if len(mf.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program lists %d", len(mf.Workloads), len(listed))
	}
	for i, w := range listed {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has %q: %q", i, mf.Workloads[i], w.name, w.why)
		}
	}
	if float64(mf.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the program's -seconds default is %v", mf.RunSeconds, defaultSeconds)
	}
	if want := toManifest(endToEnd); !reflect.DeepEqual(mf.EndToEnd, want) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", mf.EndToEnd, want)
	}
	if want := toManifest(perLayer); !reflect.DeepEqual(mf.PerLayer, want) {
		t.Errorf("per_layer:\n json %+v\n code %+v", mf.PerLayer, want)
	}
	if !reflect.DeepEqual(mf.Paths, []string{"bench"}) || strings.Join(mf.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory's runner", mf.Command, mf.Paths)
	}
}

// emitted runs one workload at smoke scale and returns the metrics of
// the JSON line the driver would read, checked against the manifest.
func emitted(w *workload, traced bool, dir string) (map[string]float64, error) {
	res, err := runWorkload(w, runOpts{seed: 1, seconds: 0.1, trace: traced, tiny: true, outDir: dir})
	if err != nil {
		return nil, err
	}
	if res.failed != 0 || res.attempted == 0 {
		return nil, fmt.Errorf("%d of %d operations failed: %v", res.failed, res.attempted, res.notes)
	}
	var buf bytes.Buffer
	printJSON(&buf, res, traced)
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		return nil, err
	}
	if !line.Correct {
		return nil, errors.New("result line says correct=false")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(line.Metrics) != len(defs) {
		return nil, fmt.Errorf("emitted %d metrics, the manifest lists %d", len(line.Metrics), len(defs))
	}
	out := map[string]float64{}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s: emitted=%v with unit %q, manifest unit %q", d.name, ok, m.Unit, d.unit)
		}
		if !traced && m.Value <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
		out[d.name] = m.Value
	}
	return out, nil
}

// exactCounts are the per-layer counts that must repeat exactly for a
// seed (the * of the README).
var exactCounts = []string{
	"cache.hit_ratio", "store.bytes_per_cell", "ncgio.bytes_per_cell",
	"dynamics.rounds_per_cell", "dynamics.evals_per_round", "dynamics.eval_skip_ratio",
	"dialect.sum-exact.moves_per_cell", "dialect.sum-large.moves_per_cell",
	"dialect.sum-exact.social_cost_mean", "dialect.sum-large.social_cost_mean",
	"bestresponse.calls_per_cell", "bestresponse.improving_ratio", "view.ball_size_mean",
}

// TestSmoke runs every workload at toy scale with verification on, both
// untraced and traced, so the benchmark cannot rot: every operation must
// pass, the emitted names must be the manifest's, and the exact counts
// must repeat. The runs mostly wait on the 150ms follow poll, so they
// all go at once rather than GOMAXPROCS at a time.
func TestSmoke(t *testing.T) {
	type run struct {
		w      *workload
		traced bool
		got    map[string]float64
		err    error
	}
	var runs []*run
	for i := range workloads {
		w := &workloads[i]
		runs = append(runs, &run{w: w}, &run{w: w, traced: true})
		if w.name == "solo-dialects" || w.name == "serve-small" {
			runs = append(runs, &run{w: w, traced: true})
		}
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.got, r.err = emitted(r.w, r.traced, t.TempDir())
		}()
	}
	wg.Wait()
	traced := map[string]map[string]float64{}
	for _, r := range runs {
		if r.err != nil {
			t.Errorf("%s (trace=%v): %v", r.w.name, r.traced, r.err)
			continue
		}
		if !r.traced {
			continue
		}
		first, seen := traced[r.w.name]
		if !seen {
			traced[r.w.name] = r.got
			continue
		}
		for _, name := range exactCounts {
			if first[name] != r.got[name] {
				t.Errorf("%s: %s is marked exact but read %v and %v on the same seed", r.w.name, name, first[name], r.got[name])
			}
		}
	}
	if got := traced["serve-small"]["cache.hit_ratio"]; got != 1.0/3 {
		t.Errorf("serve-small cache.hit_ratio = %v, want exactly 1/3", got)
	}
	if got := traced["solo-dialects"]["dialect.sum-large.social_cost_mean"]; got <= 0 {
		t.Errorf("solo-dialects dialect.sum-large.social_cost_mean = %v, want > 0", got)
	}
}
