package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// v4 format tests: the timestamp column must round-trip exactly through
// every reader, degrade to Time-zero through the timestampless formats,
// and turn every way a column can be damaged — truncation, bit flips,
// regressions, overflow, trailing bytes — into a typed *CorruptError
// (skippable in permissive mode, since the framing survives).

func TestBinaryV4RoundTrip(t *testing.T) {
	d := timestampDataset(genDataset(300))
	for _, perBlock := range []int{1, 7, 64, 0 /* default */} {
		var buf bytes.Buffer
		if err := WriteBinaryBlocksV4(&buf, d, perBlock); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if !bytes.HasPrefix(raw, []byte("MTRC\x04")) {
			t.Fatalf("perBlock=%d: magic %q", perBlock, raw[:5])
		}

		back, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, d, back, fmt.Sprintf("serial perBlock=%d", perBlock))

		// Streaming reader parity, with decode stats accounted.
		var stats DecodeStats
		sr, err := NewBinaryReaderOpts(bytes.NewReader(raw), DecodeOptions{Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		stream := &Dataset{}
		for {
			tr, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			stream.Traces = append(stream.Traces, tr)
		}
		sameDataset(t, d, stream, fmt.Sprintf("stream perBlock=%d", perBlock))
		if stats.TracesDecoded != int64(len(d.Traces)) || stats.TotalErrors() != 0 {
			t.Fatalf("perBlock=%d: stats %+v", perBlock, stats)
		}
	}
}

// TestBlockWriterV4MatchesBatch pins that the streaming v4 writer and
// WriteBinaryBlocksV4 produce identical bytes (the latter is built on
// the former, so this guards the layering).
func TestBlockWriterV4MatchesBatch(t *testing.T) {
	d := timestampDataset(genDataset(100))
	var batch, stream bytes.Buffer
	if err := WriteBinaryBlocksV4(&batch, d, 16); err != nil {
		t.Fatal(err)
	}
	bw, err := NewBlockWriterV4(&stream, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.Traces {
		if err := bw.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatal("streaming v4 writer diverges from batch writer")
	}
}

// TestBinaryV4TimestamplessCompat: a timestamped dataset written through
// the v2/v3 writers reads back with Time zero (timestamps silently
// dropped), and a v4 stream of all-zero times round-trips.
func TestBinaryV4TimestamplessCompat(t *testing.T) {
	d := timestampDataset(genDataset(60))
	want := &Dataset{Traces: append([]Trace(nil), d.Traces...)}
	for i := range want.Traces {
		want.Traces[i].Time = 0
	}

	var v2, v3 bytes.Buffer
	if err := WriteBinary(&v2, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryBlocks(&v3, d, 16); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"v2": v2.Bytes(), "v3": v3.Bytes()} {
		back, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, want, back, name+" drops timestamps")
	}

	var v4 bytes.Buffer
	if err := WriteBinaryBlocksV4(&v4, want, 16); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(v4.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, want, back, "v4 zero times")
}

// TestBlockWriterV4Contract: the writer rejects timestamp regressions
// and out-of-range values, and the error sticks.
func TestBlockWriterV4Contract(t *testing.T) {
	mk := func() *BlockWriter {
		bw, err := NewBlockWriterV4(io.Discard, 16)
		if err != nil {
			t.Fatal(err)
		}
		return bw
	}
	tr := func(ts int64) Trace {
		return Trace{Monitor: "m", Dst: 0x08080808, Time: ts}
	}

	bw := mk()
	if err := bw.Add(tr(100)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Add(tr(100)); err != nil { // duplicates are fine
		t.Fatal(err)
	}
	if err := bw.Add(tr(99)); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("regression accepted: %v", err)
	}
	if err := bw.Add(tr(500)); err == nil {
		t.Fatal("error did not stick")
	}

	for _, ts := range []int64{-1, maxV4Time + 1} {
		bw := mk()
		if err := bw.Add(tr(ts)); err == nil {
			t.Fatalf("out-of-range timestamp %d accepted", ts)
		}
	}
}

// v4Frame assembles one raw v4 block frame from its parts.
func v4Frame(payload []byte, count int, col []byte) []byte {
	uv := func(v uint64) []byte {
		var b [binary.MaxVarintLen64]byte
		return b[:binary.PutUvarint(b[:], v)]
	}
	frame := []byte{blockRecordKind}
	frame = append(frame, uv(uint64(len(payload)))...)
	frame = append(frame, uv(uint64(count))...)
	frame = append(frame, uv(uint64(len(col)))...)
	frame = append(frame, col...)
	frame = append(frame, payload...)
	return frame
}

// validV4Payload encodes one single-trace block payload.
func validV4Payload(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeTraces(&buf, []Trace{{Monitor: "m", Dst: 0x08080808}}, map[string]uint64{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultInjectionV4Timestamps crafts every way a timestamp column
// can lie and asserts the typed class, for both readers, plus the
// permissive skip-and-count path.
func TestFaultInjectionV4Timestamps(t *testing.T) {
	uv := func(v uint64) []byte {
		var b [binary.MaxVarintLen64]byte
		return b[:binary.PutUvarint(b[:], v)]
	}
	sv := func(v int64) []byte {
		var b [binary.MaxVarintLen64]byte
		return b[:binary.PutVarint(b[:], v)]
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	payload := validV4Payload(t)
	// A two-trace payload for multi-entry columns.
	payload2 := cat(payload, []byte{1}, uv(0), []byte{9, 9, 9, 9}, uv(0))

	cases := []struct {
		name  string
		frame []byte
		class CorruptClass
	}{
		{
			name:  "column exhausted before count",
			frame: v4Frame(payload2, 2, uv(100)), // base only, delta missing
			class: CorruptBadTimestamp,
		},
		{
			name:  "trailing column bytes",
			frame: v4Frame(payload, 1, cat(uv(100), sv(5))),
			class: CorruptBadTimestamp,
		},
		{
			name:  "negative delta",
			frame: v4Frame(payload2, 2, cat(uv(100), sv(-3))),
			class: CorruptBadTimestamp,
		},
		{
			name:  "base past overflow bound",
			frame: v4Frame(payload, 1, uv(maxV4Time+1)),
			class: CorruptBadTimestamp,
		},
		{
			name:  "delta past overflow bound",
			frame: v4Frame(payload2, 2, cat(uv(maxV4Time-1), sv(2))),
			class: CorruptBadTimestamp,
		},
		{
			name:  "column bytes for empty block",
			frame: v4Frame(nil, 0, uv(100)),
			class: CorruptBadTimestamp,
		},
		{
			name:  "malformed base varint",
			frame: v4Frame(payload, 1, bytes.Repeat([]byte{0x80}, 3)),
			class: CorruptBadTimestamp,
		},
		{
			name: "oversized tsLen",
			frame: cat([]byte{blockRecordKind}, uv(uint64(len(payload))), uv(1),
				uv(maxBlockBytes+1)),
			class: CorruptOversizedLen,
		},
		{
			name: "truncated column",
			frame: cat([]byte{blockRecordKind}, uv(uint64(len(payload))), uv(1),
				uv(10), uv(100)), // claims 10 column bytes, stream ends after 1-2
			class: CorruptTruncated,
		},
	}

	// A trailing valid frame proves permissive mode resynchronises.
	goodTail := v4Frame(payload, 1, uv(200))

	for _, tc := range cases {
		stream := cat([]byte("MTRC\x04"), tc.frame, goodTail)
		if tc.class == CorruptTruncated {
			// The truncation case needs the stream to really end inside
			// the column; a trailing frame would feed it bytes instead.
			stream = cat([]byte("MTRC\x04"), tc.frame)
		}
		label := tc.name
		_, err := ReadBinaryOpts(bytes.NewReader(stream), DecodeOptions{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want CorruptError", label, err)
		}
		if ce.Class != tc.class {
			t.Errorf("%s: class = %v, want %v", label, ce.Class, tc.class)
		}

		var stats DecodeStats
		ds, perr := ReadBinaryOpts(bytes.NewReader(stream), DecodeOptions{Permissive: true, Stats: &stats})
		switch tc.class {
		case CorruptBadTimestamp:
			// Framing survives: the bad block is skipped, the tail
			// decodes, and the loss is counted.
			if perr != nil {
				t.Fatalf("%s permissive: %v", label, perr)
			}
			if len(ds.Traces) != 1 || ds.Traces[0].Time != 200 {
				t.Errorf("%s permissive: got %d traces", label, len(ds.Traces))
			}
			if stats.BlocksSkipped != 1 || stats.Errors[CorruptBadTimestamp] == 0 {
				t.Errorf("%s permissive: stats %+v", label, stats)
			}
		case CorruptOversizedLen:
			// Framing itself is gone: fatal in both modes.
			if perr == nil {
				t.Errorf("%s permissive: oversized tsLen not fatal", label)
			}
		case CorruptTruncated:
			// The column read hit EOF (the "tail" bytes were consumed
			// as column): permissive keeps what came before — nothing.
			if perr != nil {
				t.Fatalf("%s permissive: %v", label, perr)
			}
			if len(ds.Traces) != 0 {
				t.Errorf("%s permissive: got %d traces, want 0", label, len(ds.Traces))
			}
		}
	}
}

// TestBinaryV4BitFlippedColumn flips every bit position across a real
// column and asserts decode either succeeds (some flips keep the column
// well-formed — e.g. a smaller base) or fails typed, and that flips the
// strict decoder accepts never corrupt the payload's trace data.
func TestBinaryV4BitFlippedColumn(t *testing.T) {
	d := timestampDataset(genDataset(64))
	var buf bytes.Buffer
	if err := WriteBinaryBlocksV4(&buf, d, 16); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	frames := walkFrames(t, raw)
	f := frames[1]
	if f.tsLen == 0 {
		t.Fatal("frame 1 has no timestamp column")
	}
	for pos := f.tsOff; pos < f.tsOff+f.tsLen; pos++ {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(raw)
			bad[pos] ^= 1 << bit
			ds, err := ReadBinary(bytes.NewReader(bad))
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip %d.%d: untyped error %v", pos, bit, err)
				}
				continue
			}
			// Accepted flips must only perturb times, never trace content.
			if len(ds.Traces) != len(d.Traces) {
				t.Fatalf("flip %d.%d: %d traces, want %d", pos, bit, len(ds.Traces), len(d.Traces))
			}
			for i := range ds.Traces {
				if ds.Traces[i].Monitor != d.Traces[i].Monitor || ds.Traces[i].Dst != d.Traces[i].Dst {
					t.Fatalf("flip %d.%d: trace %d content corrupted", pos, bit, i)
				}
			}
		}
	}
}
