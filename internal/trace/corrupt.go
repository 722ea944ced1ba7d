package trace

import "fmt"

// Corrupt-input taxonomy. The binary decoder treats every length field,
// count, and interned index it reads as hostile: real measurement feeds
// carry truncated transfers, flipped bits, and malformed records (see
// "Detection, Understanding, and Prevention of Traceroute Measurement
// Artifacts"), and a month-scale ingest must not panic or balloon its
// heap because one block of one file went bad. Every decode failure is
// a *CorruptError carrying enough context — absolute byte offset, v3
// block index, record kind, failure class — to locate the damage in a
// multi-GB corpus, and DecodeStats aggregates what a permissive decode
// survived. See DESIGN.md §9.

// CorruptClass classifies a decode failure for aggregation: the -stats
// decode-health counters bucket errors by class.
type CorruptClass uint8

const (
	// CorruptTruncated: the stream ended inside a record, block header,
	// or block payload.
	CorruptTruncated CorruptClass = iota
	// CorruptBadMagic: the 5-byte stream header is not a known version.
	CorruptBadMagic
	// CorruptBadKind: an unknown record kind byte where a record or
	// block frame was expected.
	CorruptBadKind
	// CorruptBadVarint: a malformed or overflowing uvarint field.
	CorruptBadVarint
	// CorruptOversizedLen: a length or count field exceeds its bound
	// (monitor name length, hop count, block payload bytes).
	CorruptOversizedLen
	// CorruptBadMonitorID: a trace record references a monitor id that
	// was never defined.
	CorruptBadMonitorID
	// CorruptCountMismatch: a v3 block's traceCount disagrees with its
	// payload (more traces claimed than the bytes could hold, or a
	// clean payload decoding to a different count).
	CorruptCountMismatch
	// CorruptChecksum: a spill segment run's payload failed its CRC-32C
	// integrity check (a flipped bit that still decodes as well-formed
	// varint columns).
	CorruptChecksum
	// CorruptUnsorted: a spill segment run violated its ordering or
	// value-range contract (entries must be strictly increasing and fit
	// 32 bits; the bounded-memory k-way merge depends on it).
	CorruptUnsorted
	// CorruptBadTimestamp: a v4 block's timestamp column is malformed —
	// exhausted before traceCount entries, trailing bytes after them, a
	// negative delta (timestamps within a block must be non-decreasing),
	// or a value past the format's overflow bound.
	CorruptBadTimestamp

	numCorruptClasses
)

var corruptClassNames = [numCorruptClasses]string{
	CorruptTruncated:     "truncated",
	CorruptBadMagic:      "bad_magic",
	CorruptBadKind:       "bad_kind",
	CorruptBadVarint:     "bad_varint",
	CorruptOversizedLen:  "oversized_len",
	CorruptBadMonitorID:  "bad_monitor_id",
	CorruptCountMismatch: "count_mismatch",
	CorruptChecksum:      "checksum",
	CorruptUnsorted:      "unsorted",
	CorruptBadTimestamp:  "bad_timestamp",
}

func (c CorruptClass) String() string {
	if int(c) < len(corruptClassNames) {
		return corruptClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// CorruptError is a structured decode failure on untrusted binary
// input. It pins the failure to an absolute byte offset in the stream
// (through bufio read-ahead and block framing) so a bad region of a
// multi-GB corpus can be located and excised.
type CorruptError struct {
	// Offset is the absolute byte offset in the stream at which the
	// corruption was detected.
	Offset int64
	// Block is the v3 block index the failure occurred in, or -1 when
	// the stream has no block framing (v2) or the failure precedes the
	// first block.
	Block int
	// Kind names what was being decoded: "magic", "monitor", "trace",
	// "block", or "segment".
	Kind string
	// Class buckets the failure for the decode-health counters.
	Class CorruptClass
	// Cause is the underlying error, when one exists (io errors,
	// varint overflow); may be nil for pure validation failures.
	Cause error
}

func (e *CorruptError) Error() string {
	where := fmt.Sprintf("byte %d", e.Offset)
	if e.Block >= 0 {
		where += fmt.Sprintf(", block %d", e.Block)
	}
	msg := fmt.Sprintf("trace: corrupt input at %s (%s record, %s)", where, e.Kind, e.Class)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Cause }

// DecodeStats aggregates decode-health counters across one binary
// ingest. A permissive decode (DecodeOptions.Permissive) survives
// corrupt v3 blocks by skipping them; these counters are how the
// caller learns what was lost. All fields are plain values so the
// struct is comparable and travels inside core.Diagnostics; readers
// only mutate it from the goroutine that owns the decode.
type DecodeStats struct {
	// BlocksDecoded counts v3 blocks that decoded cleanly.
	BlocksDecoded int64
	// BlocksSkipped counts corrupt v3 blocks dropped by a permissive
	// decode.
	BlocksSkipped int64
	// TracesDecoded counts traces delivered to the caller.
	TracesDecoded int64
	// TracesDropped counts traces lost inside skipped blocks, per the
	// skipped blocks' traceCount headers.
	TracesDropped int64
	// BytesConsumed counts bytes consumed from the underlying stream.
	BytesConsumed int64
	// Errors counts decode failures by CorruptClass, including ones a
	// permissive decode recovered from.
	Errors [numCorruptClasses]int64
}

// TotalErrors sums the per-class error counters.
func (s *DecodeStats) TotalErrors() int64 {
	var n int64
	for _, c := range s.Errors {
		n += c
	}
	return n
}

// ErrorsByClass returns the non-zero error counters keyed by class
// name, for reporting.
func (s *DecodeStats) ErrorsByClass() map[string]int64 {
	out := make(map[string]int64)
	for c, n := range s.Errors {
		if n != 0 {
			out[CorruptClass(c).String()] = n
		}
	}
	return out
}

// String renders the counters as a compact key=value line (the shape
// cmd/mapit -stats prints).
func (s *DecodeStats) String() string {
	msg := fmt.Sprintf("blocks=%d skipped=%d traces=%d dropped=%d bytes=%d errors=%d",
		s.BlocksDecoded, s.BlocksSkipped, s.TracesDecoded, s.TracesDropped,
		s.BytesConsumed, s.TotalErrors())
	for c, n := range s.Errors {
		if n != 0 {
			msg += fmt.Sprintf(" %s=%d", CorruptClass(c), n)
		}
	}
	return msg
}

// record notes one decode failure.
func (s *DecodeStats) record(class CorruptClass) { s.Errors[class]++ }

// DecodeOptions configures the binary decoders' handling of untrusted
// input. The zero value is the strict, backwards-compatible behaviour:
// any corruption aborts the decode with a *CorruptError.
type DecodeOptions struct {
	// Permissive makes v3 block decoding skip a corrupt block — blocks
	// are self-contained by design — count it, and resynchronise on the
	// next block frame instead of aborting. Corruption outside block
	// payloads (bad magic, a damaged block header, a flat v2 stream)
	// still fails hard: without an intact length-prefixed frame there
	// is no boundary to resynchronise on.
	Permissive bool
	// Stats, when non-nil, accumulates decode-health counters for the
	// run. Read it only after the decode completes.
	Stats *DecodeStats
}

// sink returns the stats collector to write to, substituting a private
// discard sink so decode paths never branch on nil.
func (o DecodeOptions) sink() *DecodeStats {
	if o.Stats != nil {
		return o.Stats
	}
	return &DecodeStats{}
}
