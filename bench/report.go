package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects named values and the note (sample count, source)
// printed beside each.
type metricSet struct {
	vals  map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: make(map[string]metric), notes: make(map[string]string)}
}

func (m *metricSet) set(name string, v float64, unit, note string) {
	m.vals[name] = metric{Value: v, Unit: unit}
	m.notes[name] = note
}

// print writes one "name value unit (note)" line per metric, sorted.
func (m *metricSet) print(w io.Writer, workload string) {
	names := make([]string, 0, len(m.vals))
	for n := range m.vals {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		v := m.vals[n]
		fmt.Fprintf(w, "%s %s %s %s", workload, n, formatValue(v.Value), v.Unit)
		if note := m.notes[n]; note != "" {
			fmt.Fprintf(w, " (%s)", note)
		}
		fmt.Fprintln(w)
	}
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// ops counts attempted and failed operations. Every output check is an
// operation; a mismatch or an error response is a failure. It is safe
// for concurrent use.
type ops struct {
	attempted, failed atomic.Int64
}

// maxReported caps the failures check prints: a daemon that died fails
// every lookup after it.
const maxReported = 20

// check counts one operation and reports the first failures on stderr.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted.Add(1)
	if !ok && o.failed.Add(1) <= maxReported {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
	return ok
}

// count adds n operations that all succeeded.
func (o *ops) count(n int) { o.attempted.Add(int64(n)) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads printed by -repeat match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// heapSampler records the peak Go heap in use (HeapInuse: object bytes
// plus the unused tails of in-use spans), sampled every 10 ms while a
// timed phase runs. runtime/metrics reads it without stopping the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	peak    uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		},
	}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.sample()
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64()+h.samples[1].Value.Uint64())
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// machineRecord is the machine and configuration a result was measured
// on, printed as the line before the result.
type machineRecord struct {
	CPU        string           `json:"cpu"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Commit     string           `json:"commit"`
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Fixture    map[string]int64 `json:"fixture"`
}

func newMachineRecord(cfg runConfig, fixture map[string]int64) machineRecord {
	return machineRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitHead(cfg.root),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.dur.Seconds(),
		Traced:     cfg.traced,
		Fixture:    fixture,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves HEAD from the checkout's .git directory without
// running git, so nothing outside the checkout is read; "unknown" when
// the checkout is not a git repository.
func gitHead(root string) string {
	gitDir := root + "/.git"
	head, err := os.ReadFile(gitDir + "/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(gitDir + "/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(gitDir + "/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// writeResult prints the machine record and the result as the last two
// lines of standard output.
func writeResult(w io.Writer, mr machineRecord, res result) error {
	b, err := json.Marshal(mr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine %s\n", b)
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
