// Command benchjson converts `go test -bench` output on stdin into a
// JSON array on stdout, one object per benchmark result:
//
//	go test -bench=Fixpoint -benchmem ./internal/core |
//	    go run ./internal/tools/benchjson > BENCH_fixpoint.json
//
// Each object carries name (with the -GOMAXPROCS suffix stripped),
// iterations, ns_per_op, and — when -benchmem was set — bytes_per_op
// and allocs_per_op. Context lines (goos, goarch, pkg, cpu) become
// top-level metadata so snapshots record the machine they ran on.
// Non-benchmark lines (PASS, ok, test output) are ignored.
//
// With -check FILE the command instead validates a committed snapshot:
// the file must decode into the report schema and carry at least one
// result. CI runs it against every BENCH_*.json so a hand-edited or
// truncated snapshot fails the build. -require KEY[,KEY...] tightens
// -check: each named extra metric (a b.ReportMetric unit string, e.g.
// "lookups/s") must appear in at least one result with a positive
// finite value, so a snapshot that silently lost its headline metric —
// the serving snapshot's lookups/s column, say — fails the build too.
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
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra carries b.ReportMetric custom metrics (and MB/s), keyed by
	// their unit string — e.g. "peak-heap-B" from the spill-ingest
	// benchmark, or "I2*-precision%" from the evaluation suite.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// report is the full document: run context plus every result.
type report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []result `json:"results"`
}

func main() {
	checkPath := flag.String("check", "", "validate a committed snapshot file instead of converting stdin")
	requireKeys := flag.String("require", "", "with -check: comma-separated extra metric keys that must be present with positive finite values")
	flag.Parse()
	if *checkPath != "" {
		if err := check(*checkPath, splitKeys(*requireKeys)); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *checkPath, err)
			os.Exit(1)
		}
		return
	}
	if *requireKeys != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -require is only meaningful with -check")
		os.Exit(2)
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// splitKeys parses the -require list; empty input means no requirement.
func splitKeys(s string) []string {
	if s == "" {
		return nil
	}
	keys := strings.Split(s, ",")
	for i := range keys {
		keys[i] = strings.TrimSpace(keys[i])
	}
	return keys
}

// check validates that path holds a well-formed snapshot: strict
// report-schema JSON with at least one result, each with a name and a
// positive ns/op. Each required key must additionally appear as an
// extra metric with a positive finite value in at least one result.
func check(path string, require []string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after report document")
	}
	if len(rep.Results) == 0 {
		return errors.New("no benchmark results")
	}
	for i, r := range rep.Results {
		if r.Name == "" {
			return fmt.Errorf("result %d: empty name", i)
		}
		if r.NsPerOp <= 0 {
			return fmt.Errorf("result %d (%s): ns_per_op %v not positive", i, r.Name, r.NsPerOp)
		}
	}
	for _, key := range require {
		if key == "" {
			return errors.New("-require: empty metric key")
		}
		found := false
		for _, r := range rep.Results {
			v, ok := r.Extra[key]
			if !ok {
				continue
			}
			if !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("result %s: required metric %q = %v not positive finite", r.Name, key, v)
			}
			found = true
		}
		if !found {
			return fmt.Errorf("required metric %q missing from every result", key)
		}
	}
	return nil
}

func parse(r io.Reader) (*report, error) {
	rep := &report{Results: []result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue // e.g. a "Benchmark...: log output" test line
			}
			rep.Results = append(rep.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkFixpoint/small-4  842  1279764 ns/op  81448 B/op  59 allocs/op
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return result{}, false
	}
	var res result
	res.Name = fields[0]
	if i := strings.LastIndexByte(res.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], p
		}
	}
	var err error
	if res.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return result{}, false
	}
	if res.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return result{}, false
	}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			// Custom b.ReportMetric columns and MB/s throughput.
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[fields[i+1]] = v
		}
	}
	return res, true
}
