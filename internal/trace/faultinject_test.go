package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// Fault-injection harness: takes a valid v2/v3 corpus, applies every
// corruption mode systematically (truncation at each frame-boundary
// class, bit flips, oversized uvarints, bad magic, out-of-range monitor
// ids, payload/traceCount mismatches), and asserts the decoders —
// one-shot and streaming, strict and permissive — either return a
// typed *CorruptError with offset context or skip-and-count, and never
// panic or trust a hostile length field. CI runs this under -race.

// faultCorpus is a valid corpus in one binary version.
type faultCorpus struct {
	name string
	raw  []byte
	d    *Dataset
}

func buildFaultCorpora(t testing.TB) []faultCorpus {
	t.Helper()
	d := genDataset(150)
	var v2, v3, v4 bytes.Buffer
	if err := WriteBinary(&v2, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryBlocks(&v3, d, 16); err != nil {
		t.Fatal(err)
	}
	td := timestampDataset(d)
	if err := WriteBinaryBlocksV4(&v4, td, 16); err != nil {
		t.Fatal(err)
	}
	return []faultCorpus{
		{name: "v2", raw: v2.Bytes(), d: d},
		{name: "v3", raw: v3.Bytes(), d: d},
		{name: "v4", raw: v4.Bytes(), d: td},
	}
}

// timestampDataset clones a dataset and stamps deterministic
// non-decreasing timestamps (with duplicates) onto the clone.
func timestampDataset(d *Dataset) *Dataset {
	td := &Dataset{Traces: append([]Trace(nil), d.Traces...)}
	base := int64(1_700_000_000)
	for i := range td.Traces {
		td.Traces[i].Time = base + int64(i/3)*17
	}
	return td
}

// frameInfo locates one v3/v4 block frame within a valid stream.
type frameInfo struct {
	kindOff    int // offset of the frame's kind byte
	tsOff      int // offset of the v4 timestamp column (0 for v3)
	tsLen      int
	payloadOff int
	payloadLen int
	count      int
}

// walkFrames parses the frame boundaries of a valid v3/v4 stream
// (version sniffed from the magic).
func walkFrames(t testing.TB, raw []byte) []frameInfo {
	t.Helper()
	version := raw[4]
	var frames []frameInfo
	pos := 5 // skip magic
	for pos < len(raw) {
		fi := frameInfo{kindOff: pos}
		if raw[pos] != blockRecordKind {
			t.Fatalf("frame walk: kind %d at %d", raw[pos], pos)
		}
		pos++
		plen, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			t.Fatalf("frame walk: bad payloadLen at %d", pos)
		}
		pos += n
		count, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			t.Fatalf("frame walk: bad traceCount at %d", pos)
		}
		pos += n
		if version >= 4 {
			tsLen, n := binary.Uvarint(raw[pos:])
			if n <= 0 {
				t.Fatalf("frame walk: bad tsLen at %d", pos)
			}
			pos += n
			fi.tsOff, fi.tsLen = pos, int(tsLen)
			pos += int(tsLen)
		}
		fi.payloadOff, fi.payloadLen, fi.count = pos, int(plen), int(count)
		pos += int(plen)
		frames = append(frames, fi)
	}
	return frames
}

// variant is one corrupted input.
type variant struct {
	name string
	data []byte
}

// corruptions generates every corruption mode's variants for a corpus.
func corruptions(t *testing.T, c faultCorpus) []variant {
	t.Helper()
	var out []variant
	add := func(name string, data []byte) { out = append(out, variant{name, data}) }
	clone := func() []byte { return bytes.Clone(c.raw) }

	// Mode 1: truncation at every frame-boundary class.
	cuts := []int{0, 1, 4, 5} // mid-magic and right after it
	if c.name != "v2" {
		for _, f := range walkFrames(t, c.raw) {
			cuts = append(cuts,
				f.kindOff,                   // before a frame
				f.kindOff+1,                 // mid block header
				f.payloadOff,                // before the payload
				f.payloadOff+f.payloadLen/2, // mid payload
			)
			if f.tsLen > 0 {
				cuts = append(cuts, f.tsOff, f.tsOff+f.tsLen/2) // mid timestamp column
			}
		}
	} else {
		cuts = append(cuts, 6, len(c.raw)/3, len(c.raw)/2)
	}
	cuts = append(cuts, len(c.raw)-1)
	for _, cut := range cuts {
		if cut < 0 || cut > len(c.raw) {
			continue
		}
		add(fmt.Sprintf("truncate@%d", cut), c.raw[:cut])
	}

	// Mode 2: single bit flips across the stream.
	for pos := 0; pos < len(c.raw); pos += 37 {
		b := clone()
		b[pos] ^= 1 << (pos % 8)
		add(fmt.Sprintf("bitflip@%d", pos), b)
	}

	// Mode 3: bad magic (each byte mutated).
	for i := 0; i < 5; i++ {
		b := clone()
		b[i] ^= 0xff
		add(fmt.Sprintf("badmagic@%d", i), b)
	}

	return out
}

// checkDecodeErr asserts a decode outcome is either success or a typed
// *CorruptError with sane context — never any other error kind.
func checkDecodeErr(t *testing.T, label string, err error, inputLen int) {
	t.Helper()
	if err == nil {
		return
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: untyped decode error %T: %v", label, err, err)
	}
	if ce.Offset < 0 || ce.Offset > int64(inputLen) {
		t.Errorf("%s: offset %d outside input of %d bytes", label, ce.Offset, inputLen)
	}
	if ce.Block < -1 {
		t.Errorf("%s: bad block index %d", label, ce.Block)
	}
	if ce.Kind == "" {
		t.Errorf("%s: empty record kind", label)
	}
}

// TestFaultInjectionMatrix drives every corruption mode through the
// reader in strict and permissive modes: no panics, every failure a
// *CorruptError, and a permissive decode whose trace count matches its
// stats. A strict decode that succeeds must agree with the permissive
// one and skip nothing.
func TestFaultInjectionMatrix(t *testing.T) {
	for _, c := range buildFaultCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range corruptions(t, c) {
				strict, serr := ReadBinaryOpts(bytes.NewReader(v.data), DecodeOptions{})
				checkDecodeErr(t, v.name+"/strict", serr, len(v.data))

				var stats DecodeStats
				ds, err := ReadBinaryOpts(bytes.NewReader(v.data), DecodeOptions{Permissive: true, Stats: &stats})
				checkDecodeErr(t, v.name+"/permissive", err, len(v.data))
				if err == nil {
					if got := int64(len(ds.Traces)); got != stats.TracesDecoded {
						t.Errorf("%s: stats.TracesDecoded=%d but %d traces", v.name, stats.TracesDecoded, got)
					}
					if stats.BlocksSkipped > 0 && stats.TotalErrors() == 0 {
						t.Errorf("%s: blocks skipped without recorded errors", v.name)
					}
				}
				if serr == nil {
					if err != nil {
						t.Fatalf("%s: strict decode succeeded, permissive failed: %v", v.name, err)
					}
					sameDataset(t, strict, ds, v.name+"/strict-vs-permissive")
					if stats.BlocksSkipped != 0 || stats.TracesDropped != 0 {
						t.Errorf("%s: clean input skipped data: %+v", v.name, stats)
					}
				}
			}
		})
	}
}

// TestFaultInjectionPermissiveSkip corrupts exactly one block's payload
// per trial and asserts permissive decoding yields exactly the traces
// of the untouched blocks, with the skip counted and classified.
func TestFaultInjectionPermissiveSkip(t *testing.T) {
	d := genDataset(150)
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, 16); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	frames := walkFrames(t, raw)
	if len(frames) < 3 {
		t.Fatalf("want several blocks, got %d", len(frames))
	}

	// Traces of each block, decoded from the pristine stream.
	perBlock := make([][]Trace, len(frames))
	for i, f := range frames {
		traces, cerr := new(blockDecoder).decodeBlockPayload(nil, raw[f.payloadOff:f.payloadOff+f.payloadLen], int64(f.payloadOff), i, f.count)
		if cerr != nil {
			t.Fatal(cerr)
		}
		perBlock[i] = traces
	}

	for k := range frames {
		bad := bytes.Clone(raw)
		bad[frames[k].payloadOff] = 0xee // invalid record kind inside block k

		want := &Dataset{}
		for i, traces := range perBlock {
			if i != k {
				want.Traces = append(want.Traces, traces...)
			}
		}

		decode := func(opt DecodeOptions) (*Dataset, error) {
			return ReadBinaryOpts(bytes.NewReader(bad), opt)
		}
		label := fmt.Sprintf("block%d", k)

		// Strict: typed hard error naming the corrupt block.
		if _, err := decode(DecodeOptions{}); err == nil {
			t.Fatalf("%s: strict decode accepted corrupt block", label)
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: strict error untyped: %v", label, err)
			}
			if ce.Block != k {
				t.Errorf("%s: error names block %d", label, ce.Block)
			}
			if ce.Class != CorruptBadKind {
				t.Errorf("%s: class = %v, want %v", label, ce.Class, CorruptBadKind)
			}
		}

		// Permissive: the decoded set equals the uncorrupted
		// blocks' traces exactly, and the loss is counted.
		var stats DecodeStats
		got, err := decode(DecodeOptions{Permissive: true, Stats: &stats})
		if err != nil {
			t.Fatalf("%s: permissive decode failed: %v", label, err)
		}
		sameDataset(t, want, got, label+"/permissive")
		if stats.BlocksSkipped != 1 {
			t.Errorf("%s: BlocksSkipped = %d, want 1", label, stats.BlocksSkipped)
		}
		if stats.TracesDropped != int64(frames[k].count) {
			t.Errorf("%s: TracesDropped = %d, want %d", label, stats.TracesDropped, frames[k].count)
		}
		if stats.Errors[CorruptBadKind] == 0 {
			t.Errorf("%s: bad_kind error not recorded: %+v", label, stats.ErrorsByClass())
		}
		if stats.BlocksDecoded != int64(len(frames)-1) {
			t.Errorf("%s: BlocksDecoded = %d, want %d", label, stats.BlocksDecoded, len(frames)-1)
		}
	}
}

// TestFaultInjectionTruncatedTail cuts the stream mid-payload of the
// final block: permissive decoding keeps everything before it.
func TestFaultInjectionTruncatedTail(t *testing.T) {
	d := genDataset(150)
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, 16); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	frames := walkFrames(t, raw)
	last := frames[len(frames)-1]
	cut := raw[:last.payloadOff+last.payloadLen/2]

	var want Dataset
	for _, f := range frames[:len(frames)-1] {
		traces, cerr := new(blockDecoder).decodeBlockPayload(nil, raw[f.payloadOff:f.payloadOff+f.payloadLen], 0, 0, f.count)
		if cerr != nil {
			t.Fatal(cerr)
		}
		want.Traces = append(want.Traces, traces...)
	}

	var stats DecodeStats
	got, err := ReadBinaryOpts(bytes.NewReader(cut), DecodeOptions{Permissive: true, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, &want, got, "truncated-tail")
	if stats.BlocksSkipped != 1 || stats.Errors[CorruptTruncated] == 0 {
		t.Errorf("skip not counted: %+v", stats)
	}
}

// TestFaultInjectionOversizedFields crafts streams whose length fields
// lie: every one must be rejected by a bound check (typed error, no
// unbounded allocation), and the lying traceCount must be skippable.
func TestFaultInjectionOversizedFields(t *testing.T) {
	uv := func(v uint64) []byte {
		var b [binary.MaxVarintLen64]byte
		return b[:binary.PutUvarint(b[:], v)]
	}
	concat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	cases := []struct {
		name  string
		data  []byte
		class CorruptClass
	}{
		{
			name:  "v3 payloadLen over maxBlockBytes",
			data:  concat([]byte("MTRC\x03"), []byte{blockRecordKind}, uv(maxBlockBytes+1), uv(1)),
			class: CorruptOversizedLen,
		},
		{
			name:  "v3 traceCount impossible for payload",
			data:  concat([]byte("MTRC\x03"), []byte{blockRecordKind}, uv(8), uv(1<<40), make([]byte, 8)),
			class: CorruptCountMismatch,
		},
		{
			name:  "v2 monitor name length oversized",
			data:  concat([]byte("MTRC\x02"), []byte{0}, uv(1<<30)),
			class: CorruptOversizedLen,
		},
		{
			name:  "v2 hop count oversized",
			data:  concat([]byte("MTRC\x02"), []byte{0}, uv(1), []byte("m"), []byte{1}, uv(0), []byte{9, 9, 9, 9}, uv(1<<20)),
			class: CorruptOversizedLen,
		},
		{
			name:  "v2 monitor id out of range",
			data:  concat([]byte("MTRC\x02"), []byte{1}, uv(7), []byte{9, 9, 9, 9}, uv(0)),
			class: CorruptBadMonitorID,
		},
		{
			name: "v3 monitor id out of range inside block",
			// payload: trace record with undefined monitor id 7
			data: concat([]byte("MTRC\x03"), []byte{blockRecordKind}, uv(7), uv(1),
				[]byte{1}, uv(7), []byte{9, 9, 9, 9}, uv(0)),
			class: CorruptBadMonitorID,
		},
	}
	for _, tc := range cases {
		_, err := ReadBinaryOpts(bytes.NewReader(tc.data), DecodeOptions{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want CorruptError", tc.name, err)
		}
		if ce.Class != tc.class {
			t.Errorf("%s: class = %v, want %v", tc.name, ce.Class, tc.class)
		}
	}

	// The lying traceCount and the in-block bad monitor id are
	// block-payload or header-vs-payload inconsistencies with intact
	// framing, so permissive mode skips and counts them.
	for _, name := range []string{"v3 traceCount impossible for payload", "v3 monitor id out of range inside block"} {
		for _, tc := range cases {
			if tc.name != name {
				continue
			}
			var stats DecodeStats
			ds, err := ReadBinaryOpts(bytes.NewReader(tc.data), DecodeOptions{Permissive: true, Stats: &stats})
			if err != nil {
				t.Fatalf("%s permissive: %v", tc.name, err)
			}
			if len(ds.Traces) != 0 || stats.BlocksSkipped != 1 || stats.Errors[tc.class] == 0 {
				t.Errorf("%s permissive: traces=%d stats=%+v", tc.name, len(ds.Traces), stats)
			}
		}
	}
}

// TestFaultInjectionCountMismatch rewrites a valid v3 stream's first
// frame header to claim one more trace than the payload holds: strict
// errors with CorruptCountMismatch, permissive skips only that block.
func TestFaultInjectionCountMismatch(t *testing.T) {
	d := genDataset(150)
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, 16); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	frames := walkFrames(t, raw)

	// Reassemble the stream with frame 0's count bumped.
	uv := func(v uint64) []byte {
		var b [binary.MaxVarintLen64]byte
		return b[:binary.PutUvarint(b[:], v)]
	}
	var bad bytes.Buffer
	bad.WriteString("MTRC\x03")
	for i, f := range frames {
		count := f.count
		if i == 0 {
			count++
		}
		bad.WriteByte(blockRecordKind)
		bad.Write(uv(uint64(f.payloadLen)))
		bad.Write(uv(uint64(count)))
		bad.Write(raw[f.payloadOff : f.payloadOff+f.payloadLen])
	}

	_, err := ReadBinaryOpts(bytes.NewReader(bad.Bytes()), DecodeOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Class != CorruptCountMismatch {
		t.Fatalf("err = %v, want count_mismatch CorruptError", err)
	}

	var stats DecodeStats
	got, err := ReadBinaryOpts(bytes.NewReader(bad.Bytes()), DecodeOptions{Permissive: true, Stats: &stats})
	if err != nil {
		t.Fatalf("permissive: %v", err)
	}
	var want Dataset
	for i, f := range frames {
		if i == 0 {
			continue
		}
		traces, cerr := new(blockDecoder).decodeBlockPayload(nil, raw[f.payloadOff:f.payloadOff+f.payloadLen], 0, 0, f.count)
		if cerr != nil {
			t.Fatal(cerr)
		}
		want.Traces = append(want.Traces, traces...)
	}
	sameDataset(t, &want, got, "count-mismatch")
	if stats.BlocksSkipped != 1 || stats.TracesDropped != int64(frames[0].count+1) {
		t.Errorf("stats = %+v", stats)
	}
}

// TestFaultInjectionStreamingReader drives the corruption matrix
// through the one-trace-at-a-time streaming interface (the path
// cmd/mapit's collector ingest uses): bounded iteration, typed or
// counted failures, sticky errors after the first failure.
func TestFaultInjectionStreamingReader(t *testing.T) {
	for _, c := range buildFaultCorpora(t) {
		for _, v := range corruptions(t, c) {
			for _, permissive := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/permissive=%v", c.name, v.name, permissive)
				var stats DecodeStats
				r, err := NewBinaryReaderOpts(bytes.NewReader(v.data), DecodeOptions{Permissive: permissive, Stats: &stats})
				if err != nil {
					checkDecodeErr(t, label, err, len(v.data))
					continue
				}
				decoded := 0
				for i := 0; ; i++ {
					if i > len(v.data)+1000 {
						t.Fatalf("%s: reader did not terminate", label)
					}
					_, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						checkDecodeErr(t, label, err, len(v.data))
						// Errors are sticky.
						if _, err2 := r.Next(); err2 != err {
							t.Fatalf("%s: error not sticky: %v then %v", label, err, err2)
						}
						break
					}
					decoded++
				}
				if int64(decoded) != stats.TracesDecoded {
					t.Errorf("%s: decoded %d but stats say %d", label, decoded, stats.TracesDecoded)
				}
			}
		}
	}
}

// TestCorruptErrorRendering pins the error text contract: offset, block
// and class all appear, and Unwrap exposes the cause.
func TestCorruptErrorRendering(t *testing.T) {
	cause := errors.New("boom")
	e := &CorruptError{Offset: 1234, Block: 7, Kind: "block", Class: CorruptCountMismatch, Cause: cause}
	msg := e.Error()
	for _, want := range []string{"byte 1234", "block 7", "count_mismatch", "boom"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if !errors.Is(e, cause) {
		t.Error("Unwrap does not expose cause")
	}
	v2 := &CorruptError{Offset: 9, Block: -1, Kind: "trace", Class: CorruptBadMonitorID}
	if bytes.Contains([]byte(v2.Error()), []byte("block")) {
		t.Errorf("v2 error %q mentions a block", v2.Error())
	}
}
