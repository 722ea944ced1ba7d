package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"mapit/internal/trace"
)

// The frame path (Ingestor.Ingest over MTRC v3/v4): a sanitise worker
// decodes each block frame the ingest loop lifts, and frames commit in
// stream order. These tests hold it to the streaming reader — the same
// trace count, the same *CorruptError, field-identical DecodeStats and
// the same evidence as DecodeTraces feeding ParallelCollector.Add — on
// the corruption classes of the trace package's fault-injection matrix.

// frameCorpusTraces is the corpus of the frame tests: synthTraces with
// non-decreasing timestamps (duplicates included) for v4.
func frameCorpusTraces(n int) []trace.Trace {
	traces := synthTraces(n)
	for i := range traces {
		traces[i].Time = 1_700_000_000 + int64(i/3)*17
	}
	return traces
}

// rawFrame is one block frame of a valid v3/v4 stream, split into the
// fields a corruption rewrites.
type rawFrame struct {
	count   uint64
	plen    uint64 // as written; normally len(payload)
	ts      []byte // v4 timestamp column
	payload []byte
}

// splitFrames parses a valid v3/v4 stream into its frames.
func splitFrames(t testing.TB, raw []byte) []rawFrame {
	t.Helper()
	v4 := raw[4] == 4
	var frames []rawFrame
	pos := 5
	next := func() uint64 {
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			t.Fatalf("bad uvarint at %d", pos)
		}
		pos += n
		return v
	}
	for pos < len(raw) {
		if raw[pos] != 2 {
			t.Fatalf("frame kind %d at %d", raw[pos], pos)
		}
		pos++
		var f rawFrame
		f.plen = next()
		f.count = next()
		if v4 {
			tsLen := int(next())
			f.ts = raw[pos : pos+tsLen]
			pos += tsLen
		}
		f.payload = raw[pos : pos+int(f.plen)]
		pos += int(f.plen)
		frames = append(frames, f)
	}
	return frames
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// joinFrames writes frames back into a stream of the given version.
func joinFrames(version byte, frames []rawFrame) []byte {
	out := []byte{'M', 'T', 'R', 'C', version}
	for _, f := range frames {
		out = append(out, 2)
		out = binary.AppendUvarint(out, f.plen)
		out = binary.AppendUvarint(out, f.count)
		if version >= 4 {
			out = binary.AppendUvarint(out, uint64(len(f.ts)))
			out = append(out, f.ts...)
		}
		out = append(out, f.payload...)
	}
	return out
}

// frameVariant is one corrupted input.
type frameVariant struct {
	name string
	data []byte
}

// frameCorruptions derives the fault-injection matrix's corruption
// classes from a valid v3/v4 stream: truncations at every frame-boundary
// class, bit flips across the stream, oversized uvarints (block payload
// length, monitor name length, hop count), out-of-range monitor ids,
// lying traceCounts (impossible for the payload, and one more than it
// holds) and, on v4, bad timestamp columns. The frame-level corruptions
// land in an early, a middle and the last frame, so a worker finds some
// with later frames in flight.
func frameCorruptions(t testing.TB, raw []byte, short bool) []frameVariant {
	t.Helper()
	version := raw[4]
	frames := splitFrames(t, raw)
	var out []frameVariant
	add := func(name string, data []byte) { out = append(out, frameVariant{name, data}) }

	// Truncations: before a frame, inside its header, inside the v4
	// column, before and inside the payload, and one byte short.
	// Under -short, only in the frames the rewrites below use.
	flipStride, picked := 61, []int{1, len(frames) / 2, len(frames) - 1}
	if short {
		flipStride = 389
	}
	var offs []int
	pos := 5
	for i, f := range frames {
		hdr := 1 + len(uvarint(f.plen)) + len(uvarint(f.count))
		if version >= 4 {
			hdr += len(uvarint(uint64(len(f.ts))))
		}
		if !short || slices.Contains(picked, i) {
			offs = append(offs, pos, pos+1, pos+hdr+len(f.ts)/2, pos+hdr+len(f.ts), pos+hdr+len(f.ts)+len(f.payload)/2)
		}
		pos += hdr + len(f.ts) + len(f.payload)
	}
	offs = append(offs, 3, len(raw)-1)
	for _, cut := range offs {
		add(fmt.Sprintf("truncate@%d", cut), raw[:cut])
	}

	// Bit flips.
	for p := 5; p < len(raw); p += flipStride {
		b := bytes.Clone(raw)
		b[p] ^= 1 << (p % 8)
		add(fmt.Sprintf("bitflip@%d", p), b)
	}

	// One frame rewritten.
	oneTS := binary.AppendUvarint(nil, 1_700_000_000) // a valid column for one trace
	rewrite := func(name string, i int, fn func(f *rawFrame)) {
		fs := append([]rawFrame(nil), frames...)
		fn(&fs[i])
		add(fmt.Sprintf("%s@frame%d", name, i), joinFrames(version, fs))
	}
	crafted := func(payload []byte) func(f *rawFrame) {
		return func(f *rawFrame) {
			f.payload, f.plen, f.count, f.ts = payload, uint64(len(payload)), 1, oneTS
		}
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, i := range picked {
		rewrite("oversized-payload-len", i, func(f *rawFrame) { f.plen = 1<<28 + 1 })
		rewrite("oversized-monitor-name", i, crafted(cat([]byte{0}, uvarint(1<<30))))
		rewrite("oversized-hop-count", i, crafted(cat([]byte{0}, uvarint(1), []byte("m"), []byte{1}, uvarint(0), []byte{9, 9, 9, 9}, uvarint(1<<20))))
		rewrite("bad-monitor-id", i, crafted(cat([]byte{1}, uvarint(7), []byte{9, 9, 9, 9}, uvarint(0), make([]byte, 8))))
		// A payload only a worker finds corrupt, then a frame the reader
		// rejects: the reader's own failure comes too late to count.
		fs := append([]rawFrame(nil), frames[:i+1]...)
		crafted(cat([]byte{1}, uvarint(7), []byte{9, 9, 9, 9}, uvarint(0), make([]byte, 8)))(&fs[i])
		add(fmt.Sprintf("bad-monitor-id-then-junk@frame%d", i), append(joinFrames(version, fs), 0xff))
		rewrite("count-impossible", i, func(f *rawFrame) { f.count = 1 << 40 })
		rewrite("count-plus-one", i, func(f *rawFrame) {
			f.count++
			if version >= 4 {
				f.ts = append(bytes.Clone(f.ts), 0) // one more zero delta
			}
		})
		if version >= 4 {
			rewrite("ts-negative-delta", i, func(f *rawFrame) {
				f.ts = append(binary.AppendUvarint(nil, 1_700_000_000), bytes.Repeat([]byte{1}, int(f.count)-1)...) // zigzag 1 = -1
			})
			rewrite("ts-trailing", i, func(f *rawFrame) { f.ts = append(bytes.Clone(f.ts), 0) })
			rewrite("ts-exhausted", i, func(f *rawFrame) { f.ts = f.ts[:1] })
			rewrite("ts-past-bound", i, func(f *rawFrame) {
				f.ts = append(binary.AppendUvarint(nil, 1<<37), make([]byte, f.count-1)...)
			})
		}
	}
	return out
}

// frameConfig is one collector configuration of the frame tests.
type frameConfig struct {
	name    string
	workers int
	spill   SpillConfig
	track   bool
}

func frameConfigs(dir string) []frameConfig {
	var out []frameConfig
	for _, w := range []int{1, 2, 8} {
		out = append(out,
			frameConfig{fmt.Sprintf("w%d/memory", w), w, SpillConfig{}, false},
			frameConfig{fmt.Sprintf("w%d/spill", w), w, SpillConfig{Dir: dir, RunEntries: 8}, false},
			frameConfig{fmt.Sprintf("w%d/monitors", w), w, SpillConfig{}, true},
		)
	}
	return out
}

// outcome is what one ingest of a stream leaves behind.
type outcome struct {
	n     int
	err   error
	stats trace.DecodeStats
	ev    *Evidence
}

// referenceOutcome ingests data through the streaming reader:
// DecodeTraces feeding ParallelCollector.Add.
func referenceOutcome(t testing.TB, cfg frameConfig, data []byte, strict bool) outcome {
	t.Helper()
	c := NewParallelCollectorSpill(cfg.workers, cfg.spill)
	defer c.Close()
	if cfg.track {
		c.TrackMonitors()
	}
	var o outcome
	o.n, o.err = DecodeTraces(bytes.NewReader(data), trace.DecodeOptions{Permissive: !strict, Stats: &o.stats},
		func(tr trace.Trace) error {
			c.Add(tr)
			return nil
		})
	ev, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	o.ev = ev
	return o
}

// ingestOutcome ingests data through the Ingestor's frame path.
func ingestOutcome(t testing.TB, cfg frameConfig, data []byte, strict bool) outcome {
	t.Helper()
	g := NewIngestor(IngestOptions{Workers: cfg.workers, Strict: strict, Spill: cfg.spill, TrackMonitors: cfg.track})
	defer g.Close()
	var o outcome
	o.n, o.err = g.Ingest(bytes.NewReader(data))
	o.stats = *g.DecodeStats()
	ev, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	o.ev = ev
	if g.Traces() != o.n {
		t.Fatalf("Traces() = %d after an ingest of %d", g.Traces(), o.n)
	}
	return o
}

// diffOutcome describes how got differs from want, or returns "".
func diffOutcome(want, got outcome) string {
	if want.n != got.n {
		return fmt.Sprintf("n = %d, want %d", got.n, want.n)
	}
	if (want.err == nil) != (got.err == nil) {
		return fmt.Sprintf("err = %v, want %v", got.err, want.err)
	}
	if want.err != nil {
		var we, ge *trace.CorruptError
		if !errors.As(want.err, &we) {
			if got.err.Error() != want.err.Error() {
				return fmt.Sprintf("err = %v, want %v", got.err, want.err)
			}
		} else if !errors.As(got.err, &ge) {
			return fmt.Sprintf("err = %v (%T), want %v", got.err, got.err, want.err)
		} else if we.Class != ge.Class || we.Kind != ge.Kind || we.Block != ge.Block || we.Offset != ge.Offset ||
			we.Error() != ge.Error() {
			return fmt.Sprintf("error %+v %q, want %+v %q", *ge, ge, *we, we)
		}
	}
	if want.stats != got.stats {
		return fmt.Sprintf("decode stats\n got  %+v\n want %+v", got.stats, want.stats)
	}
	if d := diffEvidence(want.ev, got.ev); d != "" {
		return "evidence: " + d
	}
	return ""
}

// frameStreams returns the many-block v3 and v4 encodings of traces.
func frameStreams(t testing.TB, traces []trace.Trace, perBlock int) map[string][]byte {
	t.Helper()
	var v3, v4 bytes.Buffer
	if err := trace.WriteBinaryBlocks(&v3, &trace.Dataset{Traces: traces}, perBlock); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinaryBlocksV4(&v4, &trace.Dataset{Traces: traces}, perBlock); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v3": v3.Bytes(), "v4": v4.Bytes()}
}

// TestIngestFramesMatchStreamingReader: over every corruption class, on
// v3 and v4, strict and permissive, at Workers 1, 2 and 8 in memory,
// spilling and with TrackMonitors, Ingest returns the streaming
// reader's count and *CorruptError, leaves its DecodeStats field for
// field, and collects the same evidence.
func TestIngestFramesMatchStreamingReader(t *testing.T) {
	dir := t.TempDir()
	traces := frameCorpusTraces(160)
	for _, version := range []string{"v3", "v4"} {
		raw := frameStreams(t, traces, 16)[version]
		variants := append([]frameVariant{{"clean", raw}}, frameCorruptions(t, raw, testing.Short())...)
		for _, cfg := range frameConfigs(dir) {
			t.Run(version+"/"+cfg.name, func(t *testing.T) {
				for _, v := range variants {
					for _, strict := range []bool{true, false} {
						want := referenceOutcome(t, cfg, v.data, strict)
						got := ingestOutcome(t, cfg, v.data, strict)
						if d := diffOutcome(want, got); d != "" {
							t.Fatalf("%s strict=%v: %s", v.name, strict, d)
						}
					}
				}
			})
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill directory: %d entries, err %v", len(ents), err)
	}
}

// TestIngestorSpillFilesBounded: a long-lived spilling ingestor keeps
// one segment file per worker slot, however many pipeline runs it goes
// through, and each round's evidence is the
// serial Collector's over everything ingested so far.
func TestIngestorSpillFilesBounded(t *testing.T) {
	const workers = 2
	traces := synthTraces(2000)
	var buf bytes.Buffer
	if err := trace.WriteBinaryBlocks(&buf, &trace.Dataset{Traces: traces}, 64); err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(IngestOptions{Workers: workers, Spill: SpillConfig{Dir: t.TempDir(), RunEntries: 64}})
	defer g.Close()
	serial := NewCollector()
	for round := 1; round <= 5; round++ {
		if _, err := g.Ingest(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			serial.Add(tr)
		}
		ev, err := g.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Evidence()
		if !reflect.DeepEqual(want.Adjacencies, ev.Adjacencies) || !reflect.DeepEqual(want.AllAddrs, ev.AllAddrs) ||
			want.Stats != ev.Stats {
			t.Fatalf("round %d: evidence differs from the serial collector: stats %+v, want %+v", round, ev.Stats, want.Stats)
		}
		sp := g.SpillStats()
		if sp.AddrRuns == 0 || sp.AdjRuns == 0 {
			t.Fatalf("round %d: nothing spilled: %+v", round, sp)
		}
		if sp.Files > workers {
			t.Fatalf("round %d: %d spill files, want at most %d", round, sp.Files, workers)
		}
	}
}

// strictPayloadStreams returns valid many-block v3 and v4 streams with
// one block's payload replaced, a third of the way in, by one whose
// monitor id is undefined: the frame reader lifts it cleanly, and only
// the worker decoding it finds the corruption.
func strictPayloadStreams(t testing.TB, traces []trace.Trace, perBlock int) (streams map[string][]byte, bad int) {
	t.Helper()
	streams = frameStreams(t, traces, perBlock)
	for name, raw := range streams {
		frames := splitFrames(t, raw)
		bad = len(frames) / 3
		payload := bytes.Join([][]byte{{1}, uvarint(7), {9, 9, 9, 9}, uvarint(0), make([]byte, 8)}, nil)
		frames[bad].payload, frames[bad].plen, frames[bad].count = payload, uint64(len(payload)), 1
		frames[bad].ts = binary.AppendUvarint(nil, 1_700_000_000)
		streams[name] = joinFrames(raw[4], frames)
	}
	return streams, bad
}
