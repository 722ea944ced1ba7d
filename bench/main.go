// Command bench is MAP-IT's end-to-end benchmark. It generates a corpus,
// its RIB and its metadata from a seed with internal/topo, writes them
// to disk, drives the calls the mapit CLI and the mapitd daemon make,
// checks every answer, and prints one line per metric followed by a
// machine record and a JSON result line. From the repository root:
//
//	bash bench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
//
// Workloads are batch, spill, window, serve-read and serve-mixed; see
// README.md for what each stresses and what every metric means. With
// --trace 1 the run alternates traced and untraced units of work,
// keeps spans around every layer call in memory, writes them to a span
// file at the end and reports the per-layer metrics derived from them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Each workload defines its
// operation: a pipeline rep (batch, spill), a window step (window), a
// lookup (serve-read) or an ingest (serve-mixed); see README.md and
// calibrate.go for op_cost.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cost", "ratio"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the metrics of a traced run, derived from its spans.
var perLayer = []metricDef{
	{"trace.busy_pct", "%"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.blocks", "count"},
	{"collect.add_wait_pct", "%"},
	{"collect.finish_pct", "%"},
	{"collect.alloc_mb", "MB"},
	{"collect.adjacencies", "count"},
	{"collect.traces_retained", "count"},
	{"spill.files", "count"},
	{"spill.bytes", "count"},
	{"spill.entries", "count"},
	{"run.busy_pct", "%"},
	{"run.alloc_mb", "MB"},
	{"run.iterations", "count"},
	{"run.add_passes", "count"},
	{"run.interfaces", "count"},
	{"run.components", "count"},
	{"run.giant_share", "ratio"},
	{"run.replays", "count"},
	{"window.observe_pct", "%"},
	{"window.advance_pct", "%"},
	{"window.evidence_pct", "%"},
	{"window.expired_per_advance", "count"},
	{"window.residents", "count"},
	{"window.recompute_ratio", "ratio"},
	{"window.link_births", "count"},
	{"window.link_deaths", "count"},
	{"snapshot.build_pct", "%"},
	{"snapshot.alloc_mb", "MB"},
	{"snapshot.rows", "count"},
	{"snapshot.links", "count"},
	{"snapshot.versions", "count"},
	{"serve.handler_pct", "%"},
	{"serve.ingest_pct", "%"},
	{"serve.requests", "count"},
	{"serve.non2xx", "count"},
	{"socket.overhead_pct", "%"},
	{"loadgen.wait_pct", "%"},
	{"loadgen.late_pct", "%"},
	{"loadgen.achieved_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tracing.overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration // length of the timed phase
	traced   bool
	root     string // repository root: .git, BENCHMARK.json, .bench_build
	work     string // directory for this run's fixtures, removed after it
	spans    string // span file of a traced run
	mapitd   string // daemon binary for the serve workloads
	sz       sizes
}

// env is the state one workload run shares with the harness.
type env struct {
	runConfig
	tr  *tracer // nil in an untraced run
	ops ops
	e2e *metricSet
	// info holds numbers an untraced run prints but does not report in
	// its result: raw times, tails and rates, whose run-to-run spread on
	// a drifting host is wider than any bound a change could be held to
	// (see calibrate.go and README.md).
	info    *metricSet
	fixture map[string]int64
}

var workloads = map[string]func(*env) error{
	"batch":       func(e *env) error { return runPipeline(e, false) },
	"spill":       func(e *env) error { return runPipeline(e, true) },
	"window":      runWindow,
	"serve-read":  func(e *env) error { return runServe(e, false) },
	"serve-mixed": func(e *env) error { return runServe(e, true) },
}

var workloadNames = []string{"batch", "spill", "window", "serve-read", "serve-mixed"}

func main() {
	if runCalibration() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (with -repeat also \"all\")")
		seed     = fs.Int64("seed", 1, "seed the fixtures are generated from")
		seconds  = fs.Int("seconds", 15, "length of the timed phase in seconds")
		traced   = fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
		spans    = fs.String("spans", "", "span file of a traced run (default .bench_build/spans-WORKLOAD-SEED.jsonl)")
		repeat   = fs.Int("repeat", 0, "run two interleaved sets of N runs (seeds SEED..SEED+N-1) and print each metric's medians, quartiles and spreads")
		derived  = fs.String("derive", "", "print the per-layer metrics recomputed from this span file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *derived != "" {
		return deriveFile(*derived, stdout, stderr)
	}
	if *repeat > 0 {
		return repeatRuns(args, *workload, *seed, *repeat, stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: need -workload one of", strings.Join(workloadNames, ", "),
			"-seconds >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		root: ".", spans: *spans, mapitd: filepath.Join(".bench_build", "mapitd"), sz: defaultSizes,
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	runtime.GOMAXPROCS(2)
	work, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work
	mr, res, err := execute(cfg, fn, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeResult(stdout, mr, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func execute(cfg runConfig, fn func(*env) error, stdout io.Writer) (machineRecord, result, error) {
	e := &env{runConfig: cfg, e2e: newMetricSet(), info: newMetricSet(),
		fixture: map[string]int64{"world_seed": worldSeed}}
	if cfg.traced {
		e.tr = newTracer()
	}
	if err := fn(e); err != nil {
		return machineRecord{}, result{}, err
	}
	report, defs := e.e2e, endToEnd
	if cfg.traced {
		if err := e.tr.write(cfg.spans); err != nil {
			return machineRecord{}, result{}, err
		}
		report, defs = derive(e.tr.spans), perLayer
		fmt.Fprintf(stdout, "%s spans written to %s\n", cfg.workload, cfg.spans)
	}
	report.print(stdout, cfg.workload)
	if !cfg.traced {
		e.info.print(stdout, cfg.workload)
	}
	res := result{
		Attempted: e.ops.attempted.Load(),
		Failed:    e.ops.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		m, ok := report.vals[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return machineRecord{}, result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = m
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return newMachineRecord(cfg, e.fixture), res, nil
}

// deriveFile recomputes a traced run's per-layer metrics from its spans.
func deriveFile(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer f.Close()
	spans, err := readSpans(bufio.NewReader(f))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	derive(spans).print(stdout, filepath.Base(path))
	return 0
}

// benchmarkFile is the part of BENCHMARK.json -repeat reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns re-executes this binary for every seed in SEED..SEED+n-1,
// twice, interleaving the two sets of runs (A, B, A, B, ...) so that
// both see the same host drift. Each run is a fresh process. It prints,
// per end-to-end metric, each set's median, quartiles and spread
// ((Q3-Q1)/median) and how far the two medians differ, beside the
// metric's bound: a spread above a third of the bound is WIDE (setup_s's
// spread is not held to its bound, only its median), medians further
// apart than the bound DIFFER.
func repeatRuns(args []string, workload string, seed int64, n int, stdout, stderr io.Writer) int {
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	bounds := make(map[string]float64)
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err == nil {
			for _, m := range bf.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base := stripFlags(args, "repeat", "seed", "workload")
	status := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		units := make(map[string]string)
		for i := 0; i < 2*n; i++ {
			s := seed + int64(i/2)
			cmd := exec.Command(self, append(base, "-workload", name, "-seed", strconv.FormatInt(s, 10))...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d failed: %v %v\n", name, s, err, perr)
				status = 1
				continue
			}
			if sets[i%2] == nil {
				sets[i%2] = make(map[string][]float64)
			}
			for k, m := range res.Metrics {
				sets[i%2][k] = append(sets[i%2][k], m.Value)
				units[k] = m.Unit
			}
		}
		printSpread(stdout, name, sets, units, bounds)
	}
	return status
}

func printSpread(w io.Writer, name string, sets [2]map[string][]float64, units map[string]string, bounds map[string]float64) {
	keys := make([]string, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		line := fmt.Sprintf("%s %s (%s)", name, k, units[k])
		var meds [2]float64
		wide := false
		for i, set := range sets {
			if len(set[k]) == 0 {
				continue
			}
			q1, med, q3 := quartiles(set[k])
			spread := (q3 - q1) / math.Abs(med)
			meds[i] = med
			wide = wide || (k != "setup_s" && spread > bounds[k]/3)
			line += fmt.Sprintf(" set%c: median=%s q1=%s q3=%s spread=%.3f n=%d",
				'A'+i, formatValue(med), formatValue(q1), formatValue(q3), spread, len(set[k]))
		}
		diff := math.Abs(meds[1]-meds[0]) / math.Abs(meds[0])
		line += fmt.Sprintf(" medians differ by %.3f", diff)
		if b, ok := bounds[k]; ok {
			verdict := "ok"
			switch {
			case diff > b:
				verdict = "DIFFER"
			case wide:
				verdict = "WIDE"
			}
			line += fmt.Sprintf(" bound=%.2f %s", b, verdict)
		}
		fmt.Fprintln(w, line)
	}
}

// stripFlags removes the named flags (and their values) from args.
func stripFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		if slices.Contains(names, name) {
			if !hasValue && i+1 < len(args) {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// lastResult parses the final line of a run's standard output.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if len(lines) == 0 {
		return res, errors.New("no output")
	}
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}
