package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestMain lets calibrate re-execute the test binary as the calibration
// process, as it re-executes the benchmark binary.
func TestMain(m *testing.M) {
	if runCalibration() {
		return
	}
	os.Exit(m.Run())
}

// tinySizes shrinks every fixture and load so that all five workloads,
// untraced and traced, run in a few seconds.
var tinySizes = sizes{
	smallWorld:  true,
	batchDests:  200,
	spillBudget: 4 << 10,
	minReps:     2,
	windowDests: 200,
	windowSec:   60,
	stepSec:     5,
	minSteady:   20,
	serveDests:  100,
	ingestDests: 20,
	refRate:     2000,
	mixedRate:   1000,
	loadStep:    50 * time.Millisecond,
	ingestEvery: 100 * time.Millisecond,
	samples:     16,
}

// declaredNames reads the metric names BENCHMARK.json declares.
func declaredNames(t *testing.T) (endToEndNames, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var bf struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEndNames, perLayerNames
}

// TestWorkloads runs every workload at tinySizes, untraced and traced.
// Each run must pass all of its output checks, report exactly the
// metrics BENCHMARK.json declares for its kind of run, all finite, and
// a traced run's span file must reproduce its per-layer metrics.
func TestWorkloads(t *testing.T) {
	endToEndNames, perLayerNames := declaredNames(t)
	mapitd := filepath.Join(t.TempDir(), "mapitd")
	build := exec.Command("go", "build", "-o", mapitd, "./cmd/mapitd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mapitd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{
					workload: name, seed: 1, dur: 300 * time.Millisecond, traced: traced,
					root: "..", work: dir, spans: filepath.Join(dir, "spans.jsonl"),
					mapitd: mapitd, sz: tinySizes,
				}
				_, res, err := execute(cfg, workloads[name], io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v: %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEndNames
				if traced {
					want = perLayerNames
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", k, m.Value)
					}
				}
				slices.Sort(got)
				want = slices.Clone(want)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("reported metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if !traced {
					return
				}
				f, err := os.Open(cfg.spans)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				spans, err := readSpans(f)
				if err != nil {
					t.Fatal(err)
				}
				again := derive(spans)
				for k, m := range res.Metrics {
					if again.vals[k] != m {
						t.Errorf("%s: run reported %v, span file gives %v", k, m, again.vals[k])
					}
				}
			})
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the arithmetic -repeat and the acceptance check share.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
