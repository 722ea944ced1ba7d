package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func FuzzParseLine(f *testing.F) {
	f.Add("m|8.8.8.8|1.2.3.4 * 5.6.7.8!q0")
	f.Add("m|8.8.8.8|")
	f.Add("|||")
	f.Add("m|x|y")
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseLine(line)
		if err != nil {
			return
		}
		// Whatever parses must serialise and re-parse identically.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ParseLine(strings.TrimSuffix(buf.String(), "\n"))
		if err != nil {
			t.Fatalf("reserialised line unparseable: %q (%v)", buf.String(), err)
		}
		if back.Dst != tr.Dst || len(back.Hops) != len(tr.Hops) {
			t.Fatalf("round trip broke: %+v vs %+v", tr, back)
		}
	})
}

// FuzzBinaryReader feeds arbitrary bytes to the binary stream reader: it
// must reject or terminate, never panic or loop.
func FuzzBinaryReader(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, &Dataset{Traces: []Trace{
		NewTrace("m", 0x08080808, 0x01010101, 0, 0x02020202),
	}})
	f.Add(seed.Bytes())
	f.Add([]byte("MTRC\x02"))
	f.Add([]byte("MTRC\x02\x00\x05mon"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			_, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
		}
		t.Fatal("reader did not terminate on bounded input")
	})
}

// fuzzSeedBlocks builds a small valid v3 stream for the block fuzzers.
func fuzzSeedBlocks() []byte {
	var seed bytes.Buffer
	_ = WriteBinaryBlocks(&seed, &Dataset{Traces: []Trace{
		NewTrace("m", 0x08080808, 0x01010101, 0, 0x02020202),
		NewTrace("n", 0x08080404, 0x01010102, 0x03030303),
	}}, 1)
	return seed.Bytes()
}

// FuzzBinaryBlockReader feeds arbitrary bytes to the block reader in
// strict mode: every failure must be a typed *CorruptError — never a
// panic, never an unbounded allocation — and input the strict decode
// accepts must decode identically in permissive mode, skipping nothing.
func FuzzBinaryBlockReader(f *testing.F) {
	seed := fuzzSeedBlocks()
	f.Add(seed)
	f.Add([]byte("MTRC\x03"))
	f.Add([]byte("MTRC\x03\x02\x07\x01\x01\x00\t\t\t\t\x00"))                             // one well-formed block
	f.Add([]byte("MTRC\x03\x02\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x01"))                 // oversized payloadLen
	f.Add([]byte("MTRC\x03\x02\x08\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x00")) // lying traceCount
	f.Add([]byte("MTRC\x03\x02\x07\x01\x01\x07\t\t\t\t\x00"))                             // monitor id out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadBinaryOpts(bytes.NewReader(data), DecodeOptions{})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		var stats DecodeStats
		pds, err := ReadBinaryOpts(bytes.NewReader(data), DecodeOptions{Permissive: true, Stats: &stats})
		if err != nil {
			t.Fatalf("permissive rejected input the strict decode accepts: %v", err)
		}
		if len(pds.Traces) != len(ds.Traces) || stats.BlocksSkipped != 0 {
			t.Fatalf("permissive decoded %d traces (%d blocks skipped), strict %d",
				len(pds.Traces), stats.BlocksSkipped, len(ds.Traces))
		}
	})
}

// FuzzV4Decode feeds arbitrary bytes to the v4 decoder in strict and
// permissive modes: every failure must be a typed *CorruptError,
// decoded timestamps must respect the format's bounds and per-block
// ordering contract, and whatever decodes cleanly must re-encode and
// decode back identically (timestamps included).
func FuzzV4Decode(f *testing.F) {
	var seed bytes.Buffer
	t1 := NewTrace("m", 0x08080808, 0x01010101, 0, 0x02020202)
	t1.Time = 1_700_000_000
	t2 := NewTrace("n", 0x08080404, 0x01010102, 0x03030303)
	t2.Time = 1_700_000_060
	_ = WriteBinaryBlocksV4(&seed, &Dataset{Traces: []Trace{t1, t2}}, 1)
	f.Add(seed.Bytes())
	f.Add([]byte("MTRC\x04"))
	f.Add([]byte("MTRC\x04\x02\x07\x01\x01\x64\x01\x00\t\t\t\t\x00"))     // one well-formed timestamped block
	f.Add([]byte("MTRC\x04\x02\x07\x01\x02\x64\x05\x01\x00\t\t\t\t\x00")) // negative delta (zigzag 5)
	f.Add([]byte("MTRC\x04\x02\x07\x01\x00\x01\x00\t\t\t\t\x00"))         // column bytes for claimed count
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, err := ReadBinaryOpts(bytes.NewReader(data), DecodeOptions{})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			// Permissive decode of rejected input must still terminate
			// with typed-or-nil errors and consistent counters.
			var stats DecodeStats
			ds, err := ReadBinaryOpts(bytes.NewReader(data), DecodeOptions{Permissive: true, Stats: &stats})
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("permissive: untyped error %T: %v", err, err)
				}
				return
			}
			if int64(len(ds.Traces)) != stats.TracesDecoded {
				t.Fatalf("permissive: %d traces but stats say %d", len(ds.Traces), stats.TracesDecoded)
			}
			if stats.BlocksSkipped > 0 && stats.TotalErrors() == 0 {
				t.Fatal("permissive: blocks skipped without recorded errors")
			}
			return
		}
		for i, tr := range serial.Traces {
			if tr.Time < 0 || tr.Time > maxV4Time {
				t.Fatalf("trace %d: decoded time %d outside format bounds", i, tr.Time)
			}
		}
		// Clean decodes re-encode: v4 needs stream-wide sorted times, so
		// only assert the writer round-trips when the decode order is
		// already non-decreasing (per-block ordering is guaranteed, the
		// cross-block base can regress in crafted streams).
		sorted := true
		for i := 1; i < len(serial.Traces); i++ {
			if serial.Traces[i].Time < serial.Traces[i-1].Time {
				sorted = false
				break
			}
		}
		if !sorted {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinaryBlocksV4(&buf, serial, 2); err != nil {
			t.Fatalf("re-encode of clean decode failed: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Traces) != len(serial.Traces) {
			t.Fatalf("round trip: %d traces, want %d", len(back.Traces), len(serial.Traces))
		}
		for i := range back.Traces {
			if back.Traces[i].Time != serial.Traces[i].Time {
				t.Fatalf("round trip: trace %d time %d, want %d", i, back.Traces[i].Time, serial.Traces[i].Time)
			}
		}
	})
}

// FuzzPermissiveDecode feeds arbitrary bytes through permissive
// decoding — one-shot and streaming — and checks the decode-health
// invariants: trace counts match the stats, and nothing is skipped
// without a recorded error.
func FuzzPermissiveDecode(f *testing.F) {
	seed := fuzzSeedBlocks()
	f.Add(seed)
	if len(seed) > 8 {
		clobbered := bytes.Clone(seed)
		clobbered[8] ^= 0xee
		f.Add(clobbered)
		f.Add(seed[:len(seed)/2]) // truncated mid-stream
	}
	f.Add([]byte("MTRC\x03\x02\x08\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x00")) // lying traceCount
	f.Fuzz(func(t *testing.T, data []byte) {
		var pstats DecodeStats
		ds, err := ReadBinaryOpts(bytes.NewReader(data), DecodeOptions{Permissive: true, Stats: &pstats})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("one-shot: untyped error %T: %v", err, err)
			}
		} else {
			if int64(len(ds.Traces)) != pstats.TracesDecoded {
				t.Fatalf("one-shot: %d traces but stats say %d", len(ds.Traces), pstats.TracesDecoded)
			}
			if pstats.BlocksSkipped > 0 && pstats.TotalErrors() == 0 {
				t.Fatal("one-shot: blocks skipped without recorded errors")
			}
		}

		var sstats DecodeStats
		r, rerr := NewBinaryReaderOpts(bytes.NewReader(data), DecodeOptions{Permissive: true, Stats: &sstats})
		if rerr != nil {
			return
		}
		decoded := int64(0)
		for i := 0; i < 1<<20; i++ {
			if _, err := r.Next(); err != nil {
				break
			}
			decoded++
		}
		if decoded != sstats.TracesDecoded {
			t.Fatalf("streaming: decoded %d but stats say %d", decoded, sstats.TracesDecoded)
		}
		// A clean permissive one-shot decode and the streaming reader
		// must agree on the surviving trace count.
		if err == nil && rerr == nil && decoded != int64(len(ds.Traces)) {
			t.Fatalf("streaming decoded %d traces, one-shot %d", decoded, len(ds.Traces))
		}
	})
}
