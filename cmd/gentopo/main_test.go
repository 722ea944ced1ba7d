package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mapit"
)

// TestGenerateRoundTrip is the end-to-end smoke test for the command:
// generate a small dataset in every trace format — binary both untimed
// (MTRC v3) and with -timestamps (MTRC v4) — parse every emitted file
// back through the one sniffing ReadTracesFile, and run an audited
// inference over the result.
func TestGenerateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name, format string
		timestamps   bool
	}{
		{"text", "text", false},
		{"json", "json", false},
		{"binary", "binary", false},
		{"binary-timestamps", "binary", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, n, err := generate(genOpts{
				out: dir, seed: 3, small: true, dests: 120, format: tc.format,
				timestamps: tc.timestamps, timeBase: 1_700_000_000, timeStep: 10, timeJitter: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("generated no traces")
			}

			traceFile := map[string]string{
				"text": "traces.txt", "json": "traces.jsonl", "binary": "traces.bin",
			}[tc.format]
			for _, name := range []string{traceFile, "rib.txt", "orgs.txt", "rels.txt", "ixp.txt", "truth.tsv"} {
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("missing output %s: %v", name, err)
				}
				if fi.Size() == 0 {
					t.Fatalf("output %s is empty", name)
				}
			}

			parsed, err := mapit.ReadTracesFile(filepath.Join(dir, traceFile))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(parsed.Traces)) != n {
				t.Fatalf("round-trip lost traces: wrote %d, read %d", n, len(parsed.Traces))
			}
			if tc.timestamps && parsed.Traces[0].Time < 1_700_000_000 {
				t.Fatalf("timestamped corpus read back untimed (first time %d)", parsed.Traces[0].Time)
			}

			table, err := mapit.ReadRIBFile(filepath.Join(dir, "rib.txt"))
			if err != nil {
				t.Fatal(err)
			}
			orgs, err := mapit.ReadOrgsFile(filepath.Join(dir, "orgs.txt"))
			if err != nil {
				t.Fatal(err)
			}
			rels, err := mapit.ReadRelationshipsFile(filepath.Join(dir, "rels.txt"))
			if err != nil {
				t.Fatal(err)
			}
			ixpDir, err := mapit.ReadIXPFile(filepath.Join(dir, "ixp.txt"))
			if err != nil {
				t.Fatal(err)
			}

			res, err := mapit.Infer(parsed, mapit.Config{
				IP2AS: table, Orgs: orgs, Rels: rels, IXP: ixpDir,
				F: 0.5, Workers: 2,
				Audit: &mapit.AuditChecker{Mode: mapit.AuditExhaustive},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Inferences) == 0 {
				t.Fatal("inference over the generated dataset found nothing")
			}
			if !res.Audit.Ok() {
				t.Fatalf("audit violations on generated dataset: %v", res.Audit.Violations)
			}
			if len(w.ASes) == 0 {
				t.Fatal("world has no ASes")
			}
		})
	}
}

// TestGenerateRejectsUnknownFormat pins the error path.
func TestGenerateRejectsUnknownFormat(t *testing.T) {
	_, _, err := generate(genOpts{out: t.TempDir(), seed: 1, small: true, format: "xml"})
	if err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestGenerateCleanMeta: -clean-meta writes the exact metadata (every
// sibling pair survives), while the default public view is lossy for
// at least one of the files on some seed. Here we just assert the clean
// variant parses and is at least as large as the noisy one.
func TestGenerateCleanMeta(t *testing.T) {
	noisy := t.TempDir()
	clean := t.TempDir()
	if _, _, err := generate(genOpts{out: noisy, seed: 5, small: true, dests: 60, format: "text"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := generate(genOpts{out: clean, seed: 5, small: true, dests: 60, format: "text", cleanMeta: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"orgs.txt", "rels.txt", "ixp.txt"} {
		ni, err := os.Stat(filepath.Join(noisy, name))
		if err != nil {
			t.Fatal(err)
		}
		ci, err := os.Stat(filepath.Join(clean, name))
		if err != nil {
			t.Fatal(err)
		}
		if ci.Size() < ni.Size() {
			t.Errorf("%s: clean metadata (%d bytes) smaller than noisy view (%d bytes)",
				name, ci.Size(), ni.Size())
		}
	}
}

// TestGenerateBinaryStreamsSameTraces: the streaming binary path must
// emit exactly the trace sequence the batch engine produces for the
// same seed and knobs.
func TestGenerateBinaryStreamsSameTraces(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := generate(genOpts{out: dir, seed: 3, small: true, dests: 120, format: "binary"}); err != nil {
		t.Fatal(err)
	}
	got, err := mapit.ReadTracesFile(filepath.Join(dir, "traces.bin"))
	if err != nil {
		t.Fatal(err)
	}

	gen := mapit.SmallWorldConfig()
	gen.Seed = 3
	tc := mapit.DefaultTraceConfig()
	tc.Seed = 4
	tc.DestsPerMonitor = 120
	want := mapit.GenerateWorld(gen).GenTraces(tc)

	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("streamed %d traces, batch engine produced %d", len(got.Traces), len(want.Traces))
	}
	for i := range want.Traces {
		a, b := want.Traces[i], got.Traces[i]
		if a.Monitor != b.Monitor || a.Dst != b.Dst || len(a.Hops) != len(b.Hops) {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Hops {
			if a.Hops[j] != b.Hops[j] {
				t.Fatalf("trace %d hop %d differs", i, j)
			}
		}
	}
}

// TestGenerateTimestamped: -timestamps writes a time-sorted MTRC v4
// corpus (binary) or timestamped JSONL, byte-identical across runs of
// the same seed, and rejects the text format, which cannot carry
// times.
func TestGenerateTimestamped(t *testing.T) {
	if _, _, err := generate(genOpts{
		out: t.TempDir(), seed: 3, small: true, dests: 60,
		format: "text", timestamps: true,
	}); err == nil {
		t.Fatal("-timestamps with text format accepted")
	}

	run := func(dir, format string) {
		t.Helper()
		if _, _, err := generate(genOpts{
			out: dir, seed: 3, small: true, dests: 60, format: format,
			timestamps: true, timeBase: 1_700_000_000, timeStep: 10, timeJitter: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}

	d1, d2 := t.TempDir(), t.TempDir()
	run(d1, "binary")
	run(d2, "binary")
	b1, err := os.ReadFile(filepath.Join(d1, "traces.bin"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(d2, "traces.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different timestamped binary corpora")
	}
	if string(b1[:5]) != "MTRC\x04" {
		t.Fatalf("timestamped binary corpus is not MTRC v4 (magic %q)", b1[:5])
	}
	ds, err := mapit.ReadTraces(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Traces) == 0 {
		t.Fatal("empty corpus")
	}
	for i, tr := range ds.Traces {
		if tr.Time < 1_700_000_000 {
			t.Fatalf("trace %d: time %d below base", i, tr.Time)
		}
		if i > 0 && tr.Time < ds.Traces[i-1].Time {
			t.Fatalf("corpus not time-sorted at %d", i)
		}
	}

	jd := t.TempDir()
	run(jd, "json")
	jds, err := mapit.ReadTracesFile(filepath.Join(jd, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jds.Traces) != len(ds.Traces) {
		t.Fatalf("json corpus has %d traces, binary %d", len(jds.Traces), len(ds.Traces))
	}
	for i := range jds.Traces {
		if jds.Traces[i].Time != ds.Traces[i].Time {
			t.Fatalf("json and binary corpora disagree on time at %d", i)
		}
	}
}
