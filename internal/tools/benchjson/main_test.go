package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mapit/internal/core
cpu: AMD EPYC 7B13
BenchmarkFixpoint/medium-4       	     391	   2905128 ns/op	  115368 B/op	      67 allocs/op
BenchmarkFixpoint/small-4        	     842	   1279764 ns/op	   81448 B/op	      59 allocs/op
BenchmarkStateHash       	   12000	     98000 ns/op
PASS
ok  	mapit/internal/core	5.123s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" ||
		rep.Pkg != "mapit/internal/core" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("metadata = %q %q %q %q", rep.Goos, rep.Goarch, rep.Pkg, rep.CPU)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(rep.Results))
	}
	medium := rep.Results[0]
	if medium.Name != "BenchmarkFixpoint/medium" || medium.Procs != 4 ||
		medium.Iterations != 391 || medium.NsPerOp != 2905128 ||
		medium.BytesPerOp != 115368 || medium.AllocsPerOp != 67 {
		t.Errorf("medium = %+v", medium)
	}
	small := rep.Results[1]
	if small.Name != "BenchmarkFixpoint/small" || small.AllocsPerOp != 59 {
		t.Errorf("small = %+v", small)
	}
	// No -benchmem columns: bytes/allocs stay zero, no -procs suffix.
	sh := rep.Results[2]
	if sh.Name != "BenchmarkStateHash" || sh.Procs != 0 ||
		sh.NsPerOp != 98000 || sh.BytesPerOp != 0 || sh.AllocsPerOp != 0 {
		t.Errorf("statehash = %+v", sh)
	}
}

func TestCheck(t *testing.T) {
	write := func(t *testing.T, body string) string {
		t.Helper()
		path := t.TempDir() + "/bench.json"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A round-trip through parse + encode must validate: this is the
	// exact shape of the committed BENCH_*.json snapshots.
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(write(t, string(blob)), nil); err != nil {
		t.Errorf("round-tripped report failed check: %v", err)
	}

	bad := map[string]string{
		"empty results":  `{"results": []}`,
		"not json":       `PASS`,
		"unknown field":  `{"bogus": 1, "results": [{"name": "B", "iterations": 1, "ns_per_op": 5}]}`,
		"missing name":   `{"results": [{"iterations": 1, "ns_per_op": 5}]}`,
		"zero ns_per_op": `{"results": [{"name": "B", "iterations": 1, "ns_per_op": 0}]}`,
		"trailing data":  `{"results": [{"name": "B", "iterations": 1, "ns_per_op": 5}]} {}`,
	}
	for name, body := range bad {
		if err := check(write(t, body), nil); err == nil {
			t.Errorf("%s: check accepted invalid snapshot", name)
		}
	}
	if err := check(t.TempDir()+"/missing.json", nil); err == nil {
		t.Error("check accepted a missing file")
	}
}

func TestParseIgnoresJunk(t *testing.T) {
	rep, err := parse(strings.NewReader("random line\nBenchmarkBroken abc def\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("got %d results, want 0", len(rep.Results))
	}
}

// TestParseBenchLineEdges pins the single-line parser's rejection and
// tolerance behaviour field by field.
func TestParseBenchLineEdges(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
		want result
	}{
		{
			name: "too few fields",
			line: "BenchmarkX 100",
			ok:   false,
		},
		{
			name: "unit in wrong column",
			line: "BenchmarkX 100 B/op 55",
			ok:   false,
		},
		{
			name: "non-numeric iterations",
			line: "BenchmarkX abc 500 ns/op",
			ok:   false,
		},
		{
			name: "non-numeric ns per op",
			line: "BenchmarkX 100 fast ns/op",
			ok:   false,
		},
		{
			name: "scientific notation ns per op",
			line: "BenchmarkX-8 2 1.5e+09 ns/op",
			ok:   true,
			want: result{Name: "BenchmarkX", Procs: 8, Iterations: 2, NsPerOp: 1.5e9},
		},
		{
			name: "non-numeric procs suffix kept in name",
			line: "BenchmarkX-fast 100 500 ns/op",
			ok:   true,
			want: result{Name: "BenchmarkX-fast", Iterations: 100, NsPerOp: 500},
		},
		{
			name: "non-standard unit lands in Extra",
			line: "BenchmarkX 100 500 ns/op 12 MB/s",
			ok:   true,
			want: result{Name: "BenchmarkX", Iterations: 100, NsPerOp: 500,
				Extra: map[string]float64{"MB/s": 12}},
		},
		{
			name: "non-numeric memory column skipped",
			line: "BenchmarkX 100 500 ns/op oops B/op 7 allocs/op",
			ok:   true,
			want: result{Name: "BenchmarkX", Iterations: 100, NsPerOp: 500, AllocsPerOp: 7},
		},
		{
			name: "dangling value without unit ignored",
			line: "BenchmarkX 100 500 ns/op 99",
			ok:   true,
			want: result{Name: "BenchmarkX", Iterations: 100, NsPerOp: 500},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseBenchLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestParseRejectsOversizedLine: the scanner caps lines at 1 MiB; a
// longer line must surface as an error, not silent truncation.
func TestParseRejectsOversizedLine(t *testing.T) {
	if _, err := parse(strings.NewReader("Benchmark" + strings.Repeat("x", 2*1024*1024))); err == nil {
		t.Fatal("oversized line accepted")
	}
}

// TestParseEmptyInputEncodesEmptyResults: an empty run still produces a
// document whose results field is [], not null — check() then rejects
// it, which is the contract CI relies on.
func TestParseEmptyInputEncodesEmptyResults(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"results":[]`) {
		t.Errorf("empty report marshals as %s, want explicit empty results array", blob)
	}
	path := t.TempDir() + "/empty.json"
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(path, nil); err == nil {
		t.Error("check accepted a result-free snapshot")
	}
}

// TestParseCustomMetrics: b.ReportMetric columns and MB/s land in
// Extra, keyed by unit, without disturbing the standard columns.
func TestParseCustomMetrics(t *testing.T) {
	line := "BenchmarkIngestSpill-4   1  41234567890 ns/op  245.1 MB/s  " +
		"214748364 peak-heap-B  1234567 spilled-B  99.5 I2*-precision%  8 B/op  2 allocs/op"
	res, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("line rejected")
	}
	if res.Name != "BenchmarkIngestSpill" || res.Procs != 4 || res.BytesPerOp != 8 || res.AllocsPerOp != 2 {
		t.Errorf("standard columns wrong: %+v", res)
	}
	want := map[string]float64{
		"MB/s": 245.1, "peak-heap-B": 214748364, "spilled-B": 1234567, "I2*-precision%": 99.5,
	}
	for k, v := range want {
		if res.Extra[k] != v {
			t.Errorf("Extra[%q] = %v, want %v", k, res.Extra[k], v)
		}
	}
	if len(res.Extra) != len(want) {
		t.Errorf("Extra = %v, want exactly %v", res.Extra, want)
	}

	// Snapshots carrying Extra must pass -check.
	rep := &report{Results: []result{res}}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/bench.json"
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(path, nil); err != nil {
		t.Errorf("snapshot with Extra failed check: %v", err)
	}
}

func TestCheckRequire(t *testing.T) {
	write := func(t *testing.T, body string) string {
		t.Helper()
		path := t.TempDir() + "/bench.json"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	snapshot := `{"results": [
		{"name": "BenchmarkServe", "iterations": 10, "ns_per_op": 15,
		 "extra": {"lookups/s": 68000000}},
		{"name": "BenchmarkSnapshotBuild", "iterations": 5, "ns_per_op": 120000}
	]}`
	path := write(t, snapshot)
	for _, req := range [][]string{nil, {"lookups/s"}} {
		if err := check(path, req); err != nil {
			t.Errorf("require %v: %v", req, err)
		}
	}
	for name, tc := range map[string]struct {
		body    string
		require []string
	}{
		"missing metric": {snapshot, []string{"no-such-metric"}},
		"empty key":      {snapshot, []string{""}},
		"zero value": {`{"results": [{"name": "B", "iterations": 1, "ns_per_op": 5,
			"extra": {"lookups/s": 0}}]}`, []string{"lookups/s"}},
		"negative value": {`{"results": [{"name": "B", "iterations": 1, "ns_per_op": 5,
			"extra": {"lookups/s": -3}}]}`, []string{"lookups/s"}},
	} {
		if err := check(write(t, tc.body), tc.require); err == nil {
			t.Errorf("%s: check accepted the snapshot", name)
		}
	}
	// A required metric present in one result satisfies the requirement
	// even though other results lack it (the build bench has no
	// lookups/s column) — but every listed key must be satisfied.
	if err := check(path, []string{"lookups/s", "absent"}); err == nil {
		t.Error("check accepted a partially satisfied -require list")
	}
}

func TestSplitKeys(t *testing.T) {
	if got := splitKeys(""); got != nil {
		t.Errorf("splitKeys(\"\") = %v", got)
	}
	if got := splitKeys("lookups/s, peak-heap-B"); !reflect.DeepEqual(got, []string{"lookups/s", "peak-heap-B"}) {
		t.Errorf("splitKeys = %v", got)
	}
}
