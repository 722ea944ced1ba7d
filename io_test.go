package mapit_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mapit"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileReaders(t *testing.T) {
	tracesPath := writeTemp(t, "traces.txt", testTraces)
	ribPath := writeTemp(t, "rib.txt", testRIB)
	orgsPath := writeTemp(t, "orgs.txt", "as|1|A\nas|2|A\n")
	relsPath := writeTemp(t, "rels.txt", "1|2|-1\n")
	ixpPath := writeTemp(t, "ixp.txt", "prefix|80.249.208.0/21|AMS-IX\n")

	ds, err := mapit.ReadTracesFile(tracesPath)
	if err != nil || len(ds.Traces) != 5 {
		t.Fatalf("ReadTracesFile: %v, %d traces", err, len(ds.Traces))
	}
	if _, err := mapit.ReadRIBFile(ribPath); err != nil {
		t.Fatal(err)
	}
	orgs, err := mapit.ReadOrgsFile(orgsPath)
	if err != nil || !orgs.SameOrg(1, 2) {
		t.Fatalf("ReadOrgsFile: %v", err)
	}
	rels, err := mapit.ReadRelationshipsFile(relsPath)
	if err != nil || !rels.Known(1) {
		t.Fatalf("ReadRelationshipsFile: %v", err)
	}
	dir, err := mapit.ReadIXPFile(ixpPath)
	if err != nil || dir.NumPrefixes() != 1 {
		t.Fatalf("ReadIXPFile: %v", err)
	}

	// Missing files error.
	for _, fn := range []func(string) (any, error){
		func(p string) (any, error) { return mapit.ReadTracesFile(p) },
		func(p string) (any, error) { return mapit.ReadRIBFile(p) },
		func(p string) (any, error) { return mapit.ReadOrgsFile(p) },
		func(p string) (any, error) { return mapit.ReadRelationshipsFile(p) },
		func(p string) (any, error) { return mapit.ReadIXPFile(p) },
	} {
		if _, err := fn(filepath.Join(t.TempDir(), "missing")); err == nil {
			t.Error("missing file accepted")
		}
	}
}

// TestTraceFormatAutodetect writes one dataset in every trace format
// and reads it back through ReadTraces and ReadTracesFile: both must
// sniff the format and return the traces written, timestamps included.
func TestTraceFormatAutodetect(t *testing.T) {
	ds, err := mapit.ReadTraces(strings.NewReader(testTraces))
	if err != nil {
		t.Fatal(err)
	}
	// v4 needs non-decreasing times; repeats exercise zero deltas.
	timed := &mapit.Dataset{Traces: slices.Clone(ds.Traces)}
	for i := range timed.Traces {
		timed.Traces[i].Time = 1_700_000_000 + int64(i/2)*30
	}

	for _, tc := range []struct {
		name  string
		want  *mapit.Dataset
		write func(io.Writer, *mapit.Dataset) error
	}{
		{"text", ds, mapit.WriteTraces},
		{"jsonl", timed, mapit.WriteTracesJSON},
		{"v2", ds, mapit.WriteTracesBinary},
		{"v3", ds, func(w io.Writer, d *mapit.Dataset) error { return mapit.WriteTracesBinaryBlocks(w, d, 2) }},
		{"v4", timed, func(w io.Writer, d *mapit.Dataset) error { return mapit.WriteTracesBinaryBlocksV4(w, d, 2) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf, tc.want); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		path := filepath.Join(t.TempDir(), "traces."+tc.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := mapit.ReadTraces(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%s: ReadTraces: %v", tc.name, err)
		} else {
			sameTraces(t, tc.name+"/ReadTraces", tc.want, got)
		}
		if got, err := mapit.ReadTracesFile(path); err != nil {
			t.Errorf("%s: ReadTracesFile: %v", tc.name, err)
		} else {
			sameTraces(t, tc.name+"/ReadTracesFile", tc.want, got)
		}
	}
}

// TestReadTracesStrict: ReadTraces decodes strictly, so a truncated
// block fails the read, while DecodeTraces in permissive mode skips it.
func TestReadTracesStrict(t *testing.T) {
	ds, err := mapit.ReadTraces(strings.NewReader(testTraces))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mapit.WriteTracesBinaryBlocks(&buf, ds, 2); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()[:buf.Len()-3] // cut the last block short
	var ce *mapit.CorruptError
	if _, err := mapit.ReadTraces(bytes.NewReader(bad)); !errors.As(err, &ce) {
		t.Fatalf("ReadTraces on a truncated block: err = %v, want CorruptError", err)
	}
	var stats mapit.DecodeStats
	n, err := mapit.DecodeTraces(bytes.NewReader(bad), mapit.DecodeOptions{Permissive: true, Stats: &stats},
		func(mapit.Trace) error { return nil })
	if err != nil || stats.BlocksSkipped != 1 || n != len(ds.Traces)-1 {
		t.Fatalf("permissive DecodeTraces: n=%d err=%v stats=%+v", n, err, stats)
	}
}

// sameTraces requires got to hold want's traces in order: monitor,
// destination, timestamp and every hop.
func sameTraces(t *testing.T, label string, want, got *mapit.Dataset) {
	t.Helper()
	if len(got.Traces) != len(want.Traces) {
		t.Errorf("%s: %d traces, want %d", label, len(got.Traces), len(want.Traces))
		return
	}
	for i, w := range want.Traces {
		g := got.Traces[i]
		if g.Monitor != w.Monitor || g.Dst != w.Dst || g.Time != w.Time || !slices.Equal(g.Hops, w.Hops) {
			t.Errorf("%s: trace %d = %+v, want %+v", label, i, g, w)
			return
		}
	}
}

func TestReadRIBBad(t *testing.T) {
	if _, err := mapit.ReadRIB(strings.NewReader("broken")); err == nil {
		t.Error("broken RIB accepted")
	}
}
