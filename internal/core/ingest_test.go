package core

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mapit/internal/trace"
)

// ingestDataset builds a tiny timestamped corpus that survives
// sanitisation, for exercising every encoding the sniffing decoder
// accepts.
func ingestDataset() *trace.Dataset {
	t1 := trace.NewTrace("m", 0x08080808, 0x01010101, 0, 0x02020202)
	t1.Time = 1_700_000_000
	t2 := trace.NewTrace("n", 0x08080404, 0x01010102, 0x03030303)
	t2.Time = 1_700_000_060
	return &trace.Dataset{Traces: []trace.Trace{t1, t2}}
}

// TestDecodeTracesSniffing round-trips the corpus through every wire
// format and checks the sniffing loop delivers the same traces in
// stream order. Timestamps survive exactly where the format carries
// them (JSONL and MTRC v4) and come back zero elsewhere.
func TestDecodeTracesSniffing(t *testing.T) {
	ds := ingestDataset()
	encode := func(f func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name  string
		data  []byte
		times bool // format carries timestamps
	}{
		{"text", encode(func(b *bytes.Buffer) error { return trace.Write(b, ds) }), false},
		{"jsonl", encode(func(b *bytes.Buffer) error { return trace.WriteJSON(b, ds) }), true},
		{"binary v2", encode(func(b *bytes.Buffer) error { return trace.WriteBinary(b, ds) }), false},
		{"binary v3", encode(func(b *bytes.Buffer) error { return trace.WriteBinaryBlocks(b, ds, 1) }), false},
		{"binary v4", encode(func(b *bytes.Buffer) error { return trace.WriteBinaryBlocksV4(b, ds, 1) }), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []trace.Trace
			n, err := DecodeTraces(bytes.NewReader(tc.data), trace.DecodeOptions{}, func(tr trace.Trace) error {
				got = append(got, tr)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(ds.Traces) || len(got) != len(ds.Traces) {
				t.Fatalf("decoded %d traces (callback saw %d), want %d", n, len(got), len(ds.Traces))
			}
			for i, tr := range got {
				want := ds.Traces[i]
				if tr.Monitor != want.Monitor || tr.Dst != want.Dst || !slices.Equal(tr.Hops, want.Hops) {
					t.Fatalf("trace %d: got %+v want %+v", i, tr, want)
				}
				wantTime := want.Time
				if !tc.times {
					wantTime = 0
				}
				if tr.Time != wantTime {
					t.Fatalf("trace %d: time %d, want %d", i, tr.Time, wantTime)
				}
			}
		})
	}
}

// TestDecodeTracesEmptyAndMalformed pins the sniffer's edge behaviour:
// inputs shorter than a magic fall through to the text parser, an
// empty stream is a valid empty corpus, and each branch surfaces its
// parser's error.
func TestDecodeTracesEmptyAndMalformed(t *testing.T) {
	n, err := DecodeTraces(strings.NewReader(""), trace.DecodeOptions{}, func(trace.Trace) error {
		t.Fatal("callback on empty input")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty input: n=%d err=%v", n, err)
	}
	if _, err := DecodeTraces(strings.NewReader("not|a|trace"), trace.DecodeOptions{}, nopTrace); err == nil {
		t.Fatal("malformed text accepted")
	}
	if _, err := DecodeTraces(strings.NewReader("{\"bad\": json"), trace.DecodeOptions{}, nopTrace); err == nil {
		t.Fatal("malformed JSONL accepted")
	}
}

func nopTrace(trace.Trace) error { return nil }

// TestDecodeTracesCallbackError pins that a callback error aborts the
// decode on both the streaming (binary) and whole-dataset (text)
// paths, is returned verbatim, and the count reflects deliveries.
func TestDecodeTracesCallbackError(t *testing.T) {
	ds := ingestDataset()
	boom := errors.New("boom")
	var v4 bytes.Buffer
	if err := trace.WriteBinaryBlocksV4(&v4, ds, 0); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := trace.Write(&text, ds); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"binary", v4.Bytes()}, {"text", text.Bytes()}} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			n, err := DecodeTraces(bytes.NewReader(tc.data), trace.DecodeOptions{}, func(trace.Trace) error {
				calls++
				if calls == 2 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if n != 1 || calls != 2 {
				t.Fatalf("n=%d calls=%d, want 1 delivered before the failing call", n, calls)
			}
		})
	}
}

// corruptV3Stream returns a two-block v3 stream with one payload byte
// flipped such that strict decodes fail with a typed corruption error
// while permissive decodes skip exactly one block and keep the other
// trace. The flip position is found by search so the helper stays
// valid if the encoding shifts.
func corruptV3Stream(t *testing.T) ([]byte, int) {
	t.Helper()
	ds := ingestDataset()
	var buf bytes.Buffer
	if err := trace.WriteBinaryBlocks(&buf, ds, 1); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := 5; pos < len(clean); pos++ {
		data := bytes.Clone(clean)
		data[pos] ^= 0xa5
		var ce *trace.CorruptError
		if _, err := trace.ReadBinaryOpts(bytes.NewReader(data), trace.DecodeOptions{}); !errors.As(err, &ce) {
			continue
		}
		var stats trace.DecodeStats
		got, err := trace.ReadBinaryOpts(bytes.NewReader(data), trace.DecodeOptions{Permissive: true, Stats: &stats})
		if err == nil && stats.BlocksSkipped == 1 && len(got.Traces) == len(ds.Traces)-1 {
			return data, len(ds.Traces)
		}
	}
	t.Fatal("no byte flip produced a skippable corrupt block")
	return nil, 0
}

// TestDecodeTracesCorruption pins strict-vs-permissive behaviour of
// the binary branch: strict surfaces a typed *trace.CorruptError;
// permissive skips the bad block, counts it in the caller's stats, and
// still delivers the clean remainder.
func TestDecodeTracesCorruption(t *testing.T) {
	data, total := corruptV3Stream(t)
	_, err := DecodeTraces(bytes.NewReader(data), trace.DecodeOptions{}, nopTrace)
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("strict: err = %v (%T), want *trace.CorruptError", err, err)
	}
	var stats trace.DecodeStats
	n, err := DecodeTraces(bytes.NewReader(data), trace.DecodeOptions{Permissive: true, Stats: &stats}, nopTrace)
	if err != nil {
		t.Fatalf("permissive: %v", err)
	}
	if n != total-1 {
		t.Fatalf("permissive delivered %d traces, want %d (one block skipped)", n, total-1)
	}
	if stats.BlocksSkipped != 1 || stats.TotalErrors() == 0 {
		t.Fatalf("permissive stats: %+v", stats)
	}
}

// TestIngestorLifecycle drives the full pipeline: mixed-format
// incremental ingest, monitor tracking, repeated finalisation over the
// growing union, decode-health accounting, and close.
func TestIngestorLifecycle(t *testing.T) {
	g := NewIngestor(IngestOptions{Workers: 2, TrackMonitors: true})
	defer g.Close()

	ds := ingestDataset()
	var text bytes.Buffer
	if err := trace.Write(&text, ds); err != nil {
		t.Fatal(err)
	}
	if n, err := g.Ingest(&text); err != nil || n != len(ds.Traces) {
		t.Fatalf("text ingest: n=%d err=%v", n, err)
	}
	ev, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats.TotalTraces != len(ds.Traces) {
		t.Fatalf("evidence covers %d traces, want %d", ev.Stats.TotalTraces, len(ds.Traces))
	}
	if len(ev.Monitors) == 0 {
		t.Fatal("TrackMonitors produced no monitor evidence")
	}

	// The ingestor stays usable after Finish: a second, binary batch
	// accumulates and the next Finish covers the union. A corrupt block
	// in permissive mode is skipped, not fatal, and lands in the
	// cumulative decode stats.
	data, total := corruptV3Stream(t)
	if n, err := g.Ingest(bytes.NewReader(data)); err != nil || n != total-1 {
		t.Fatalf("binary ingest: n=%d err=%v", n, err)
	}
	if g.Traces() != len(ds.Traces)+total-1 {
		t.Fatalf("Traces() = %d, want %d", g.Traces(), len(ds.Traces)+total-1)
	}
	ev2, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Stats.TotalTraces != g.Traces() {
		t.Fatalf("second finish covers %d traces, want %d", ev2.Stats.TotalTraces, g.Traces())
	}
	if st := g.DecodeStats(); st.BlocksSkipped != 1 || st.TotalErrors() == 0 {
		t.Fatalf("decode stats: %+v", *st)
	}
	if sp := g.SpillStats(); sp != (SpillStats{}) {
		t.Fatalf("in-memory ingest reported spill activity: %+v", sp)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestorStrict pins that strict mode turns block corruption into
// an ingest error and leaves exactly the evidence of what came before
// it: the earlier batch and the blocks ahead of the corrupt one, which
// sits early in a many-block stream, so that later frames are in flight
// in the workers when it fails.
func TestIngestorStrict(t *testing.T) {
	ds := ingestDataset()
	var v4 bytes.Buffer
	if err := trace.WriteBinaryBlocksV4(&v4, ds, 0); err != nil {
		t.Fatal(err)
	}
	traces := synthTraces(2048)
	const perBlock = 16
	streams, bad := strictPayloadStreams(t, traces, perBlock)
	for _, workers := range []int{1, 2, 8} {
		for name, data := range streams {
			g := NewIngestor(IngestOptions{Workers: workers, Strict: true})
			if n, err := g.Ingest(bytes.NewReader(v4.Bytes())); err != nil || n != len(ds.Traces) {
				t.Fatalf("clean ingest: n=%d err=%v", n, err)
			}
			n, err := g.Ingest(bytes.NewReader(data))
			var ce *trace.CorruptError
			if !errors.As(err, &ce) || ce.Block != bad {
				t.Fatalf("%s workers=%d: strict ingest of a stream corrupt in block %d: err %v", name, workers, bad, err)
			}
			if n != bad*perBlock {
				t.Fatalf("%s workers=%d: n=%d, want the %d traces ahead of the corrupt block", name, workers, n, bad*perBlock)
			}
			ev, err := g.Finish()
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
			serial := NewCollector()
			for _, tr := range append(slices.Clone(ds.Traces), traces[:bad*perBlock]...) {
				serial.Add(tr)
			}
			want := serial.Evidence()
			if !reflect.DeepEqual(want.Adjacencies, ev.Adjacencies) || !reflect.DeepEqual(want.AllAddrs, ev.AllAddrs) ||
				want.Stats != ev.Stats {
				t.Fatalf("%s workers=%d: evidence after the failure differs from the blocks before it: stats %+v, want %+v",
					name, workers, ev.Stats, want.Stats)
			}
		}
	}
}

// TestIngestorCloseStopsPipeline: Close after a failed ingest must stop
// the collector's sanitise workers, which otherwise wait forever for
// the work the aborted decode never sent — in
// memory and spilling alike, with the spill directory left empty. The
// failures come from the frame reader (a junk tail) and from a worker
// (a payload partway through the stream that only decoding reveals),
// and a Close must not block on either.
func TestIngestorCloseStopsPipeline(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteBinaryBlocks(&buf, &trace.Dataset{Traces: synthTraces(300)}, 64); err != nil {
		t.Fatal(err)
	}
	buf.Write(bytes.Repeat([]byte{0xff}, 64))
	streams := []struct {
		name    string
		data    []byte
		workers []int
	}{{"junk tail", buf.Bytes(), []int{2}}}
	payload, _ := strictPayloadStreams(t, synthTraces(1200), 32)
	for _, name := range []string{"v3", "v4"} {
		streams = append(streams, struct {
			name    string
			data    []byte
			workers []int
		}{name + " corrupt payload", payload[name], []int{1, 2, 8}})
	}
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for _, s := range streams {
		for _, workers := range s.workers {
			for _, spill := range []SpillConfig{{}, {Dir: dir, RunEntries: 16}} {
				for i := 0; i < 3; i++ {
					g := NewIngestor(IngestOptions{Workers: workers, Strict: true, Spill: spill})
					if n, err := g.Ingest(bytes.NewReader(s.data)); err == nil || n == 0 {
						t.Fatalf("%s workers=%d: n=%d err=%v, want traces and an error", s.name, workers, n, err)
					}
					closed := make(chan error, 1)
					go func() { closed <- g.Close() }()
					select {
					case err := <-closed:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s workers=%d: Close blocked", s.name, workers)
					}
				}
			}
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill directory after Close: %d entries, err %v", len(ents), err)
	}
	// The pipeline's goroutines have finished their work when Close
	// returns; allow them a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed ingests, %d after closing them", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentIngestorsSharePools runs two Ingestors at once in one
// process, so their collectors draw trace and adjacency batches from the
// same pools: each must still produce exactly the serial Collector's
// evidence for its own corpus. CI runs it under the race detector.
func TestConcurrentIngestorsSharePools(t *testing.T) {
	all := synthTraces(6000)
	corpora := [][]trace.Trace{all[:3000], all[3000:]}
	type result struct {
		ev  *Evidence
		err error
	}
	results := make([]result, len(corpora))
	var wg sync.WaitGroup
	for i, traces := range corpora {
		var buf bytes.Buffer
		if err := trace.WriteBinaryBlocks(&buf, &trace.Dataset{Traces: traces}, 64); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, data []byte) {
			defer wg.Done()
			g := NewIngestor(IngestOptions{Workers: 3, Strict: true, TrackMonitors: i == 1})
			defer g.Close()
			// Several streams per ingestor, with a Finish between them,
			// restart the pipeline and cycle the pools repeatedly.
			for k := 0; k < 3; k++ {
				if _, err := g.Ingest(bytes.NewReader(data)); err != nil {
					results[i].err = err
					return
				}
				if _, err := g.Finish(); err != nil {
					results[i].err = err
					return
				}
			}
			results[i].ev, results[i].err = g.Finish()
		}(i, buf.Bytes())
	}
	wg.Wait()
	for i, traces := range corpora {
		if results[i].err != nil {
			t.Fatalf("ingestor %d: %v", i, results[i].err)
		}
		serial := NewCollector()
		for k := 0; k < 3; k++ {
			for _, tc := range traces {
				serial.Add(tc)
			}
		}
		want, got := serial.Evidence(), results[i].ev
		if !reflect.DeepEqual(want.Adjacencies, got.Adjacencies) || want.Stats != got.Stats ||
			!reflect.DeepEqual(want.AllAddrs, got.AllAddrs) {
			t.Fatalf("ingestor %d: evidence differs from the serial collector: stats %+v, want %+v",
				i, got.Stats, want.Stats)
		}
	}
}
