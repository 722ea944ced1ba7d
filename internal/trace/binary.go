package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mapit/internal/inet"
)

// Binary codec: a compact record stream for month-scale corpora (the
// text form of the paper's 733M-trace dataset would be hundreds of GB;
// this format stores a hop in ~5 bytes and interns monitor names, of
// which Ark has ~110). Layout:
//
//	magic   "MTRC" '\x02'                               (once)
//	record  kind byte:
//	          0: define monitor — nameLen uvarint, name bytes
//	             (assigned the next sequential id, starting at 0)
//	          1: trace — monitorID uvarint
//	             dst       4 bytes big endian
//	             hopCount  uvarint
//	             hops      hopCount × (flag, [addr 4B], [qttl byte])
//
// hop flag bits: 0x01 = responded (addr follows), 0x02 = anomalous
// quoted TTL (byte follows).
//
// Version 3 ("MTRC" '\x03') wraps the same records in length-prefixed
// blocks so decode can shard across cores:
//
//	block   kind byte 2
//	        payloadLen uvarint (bytes)
//	        traceCount uvarint
//	        payload    — a self-contained v2 record stream: monitor
//	                     ids restart at 0 in every block
//
// Self-contained blocks cost re-emitting the ~110 monitor definitions
// per block (noise next to thousands of traces) and buy fully
// independent block decode.
//
// Version 4 ("MTRC" '\x04') is the v3 block format plus a per-block
// timestamp column, so sliding-window streaming inference (core.Window)
// can expire old evidence. Each block frame becomes:
//
//	block   kind byte 2
//	        payloadLen uvarint (bytes)
//	        traceCount uvarint
//	        tsLen      uvarint (bytes of the timestamp column)
//	        tsColumn   — base uvarint: the first trace's Unix seconds;
//	                     then traceCount-1 signed (zigzag) varint deltas
//	        payload    — a self-contained v2 record stream, as in v3
//
// Timestamps within a block must be non-decreasing (writers emit
// time-sorted corpora; BlockWriter enforces it across its whole
// stream), so the deltas are non-negative in any well-formed stream —
// the signed encoding exists so that a flipped bit shows up as a
// typed CorruptBadTimestamp instead of a silently huge timestamp.
// Values are bounded by maxV4Time; anything past it is corruption.
// Readers of any version accept all of them: v2/v3 streams decode with
// Time zero, and a v4 corpus written through a v2/v3 writer silently
// drops its timestamps.
var binaryMagic = [5]byte{'M', 'T', 'R', 'C', 2}

var binaryMagicV3 = [5]byte{'M', 'T', 'R', 'C', 3}

var binaryMagicV4 = [5]byte{'M', 'T', 'R', 'C', 4}

// blockRecordKind frames a v3 trace block.
const blockRecordKind = 2

// DefaultBlockTraces is the default traces-per-block for v3 writers:
// large enough that block framing and per-block monitor tables are
// noise, small enough that a corpus splits into many parallel units.
const DefaultBlockTraces = 4096

// maxBlockBytes bounds a single block allocation when decoding
// untrusted input.
const maxBlockBytes = 1 << 28

// maxV4Time bounds a v4 timestamp (Unix seconds). 1<<36 is roughly the
// year 4147 — far past any plausible measurement — so a corrupted
// column surfaces as a typed error instead of silently decoding to an
// absurd time, and checking each delta against the bound before adding
// keeps the running sum from overflowing int64.
const maxV4Time = 1 << 36

// recordWriter is the sink for record encoding; *bufio.Writer (streams)
// and *bytes.Buffer (in-memory blocks) both satisfy it.
type recordWriter interface {
	io.Writer
	io.StringWriter
	WriteByte(byte) error
}

// WriteBinary emits the dataset in the v2 binary format: one flat
// record stream with stream-global monitor interning.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := encodeTraces(bw, d.Traces, make(map[string]uint64)); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinaryBlocks emits the dataset in the v3 block format, framing
// every tracesPerBlock traces as an independently decodable block
// (tracesPerBlock <= 0 selects DefaultBlockTraces).
func WriteBinaryBlocks(w io.Writer, d *Dataset, tracesPerBlock int) error {
	bw, err := NewBlockWriter(w, tracesPerBlock)
	if err != nil {
		return err
	}
	return writeAll(bw, d)
}

// WriteBinaryBlocksV4 emits the dataset in the timestamped v4 block
// format. Traces must carry non-negative, non-decreasing Time values
// (sort the dataset by Time first); a regression fails the write.
func WriteBinaryBlocksV4(w io.Writer, d *Dataset, tracesPerBlock int) error {
	bw, err := NewBlockWriterV4(w, tracesPerBlock)
	if err != nil {
		return err
	}
	return writeAll(bw, d)
}

func writeAll(bw *BlockWriter, d *Dataset) error {
	for _, t := range d.Traces {
		if err := bw.Add(t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BlockWriter streams traces into the v3 block format one at a time,
// holding only the current block — so a generator (or a relay) can
// write corpora of any size with a fixed footprint. The bytes are
// identical to WriteBinaryBlocks over the same trace sequence (which is
// implemented on top of it).
type BlockWriter struct {
	bw             *bufio.Writer
	tracesPerBlock int
	buf            bytes.Buffer
	monitorID      map[string]uint64
	pending        int
	total          int64
	err            error
	version        byte
	// times buffers the pending block's timestamps (v4 only) and
	// lastTime enforces the stream-wide non-decreasing contract.
	times    []int64
	lastTime int64
}

// NewBlockWriter writes the v3 magic and returns a streaming writer.
// tracesPerBlock <= 0 selects DefaultBlockTraces.
func NewBlockWriter(w io.Writer, tracesPerBlock int) (*BlockWriter, error) {
	return newBlockWriter(w, tracesPerBlock, 3)
}

// NewBlockWriterV4 writes the v4 magic and returns a streaming writer
// that persists each trace's Time in per-block timestamp columns.
// Traces must arrive with non-negative, non-decreasing Time values; a
// violation fails the Add (and sticks).
func NewBlockWriterV4(w io.Writer, tracesPerBlock int) (*BlockWriter, error) {
	return newBlockWriter(w, tracesPerBlock, 4)
}

func newBlockWriter(w io.Writer, tracesPerBlock int, version byte) (*BlockWriter, error) {
	if tracesPerBlock <= 0 {
		tracesPerBlock = DefaultBlockTraces
	}
	magic := binaryMagicV3
	if version >= 4 {
		magic = binaryMagicV4
	}
	bw := &BlockWriter{
		bw:             bufio.NewWriterSize(w, 1<<16),
		tracesPerBlock: tracesPerBlock,
		monitorID:      make(map[string]uint64),
		version:        version,
	}
	if _, err := bw.bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Add appends one trace to the current block, emitting the block when
// it reaches tracesPerBlock traces. Errors are sticky.
func (w *BlockWriter) Add(t Trace) error {
	if w.err != nil {
		return w.err
	}
	if w.version >= 4 {
		if t.Time < 0 || t.Time > maxV4Time {
			w.err = fmt.Errorf("trace: v4 timestamp %d outside [0, %d]", t.Time, int64(maxV4Time))
			return w.err
		}
		if w.total > 0 && t.Time < w.lastTime {
			w.err = fmt.Errorf("trace: v4 timestamps must be non-decreasing (%d after %d)", t.Time, w.lastTime)
			return w.err
		}
		w.lastTime = t.Time
		w.times = append(w.times, t.Time)
	}
	if err := encodeTraces(&w.buf, []Trace{t}, w.monitorID); err != nil {
		w.err = err
		return err
	}
	w.pending++
	w.total++
	if w.pending >= w.tracesPerBlock {
		return w.emitBlock()
	}
	return nil
}

// Traces returns how many traces have been added.
func (w *BlockWriter) Traces() int64 { return w.total }

// emitBlock frames and writes the buffered block, then resets the
// block-local monitor interning (v3 blocks are self-contained).
func (w *BlockWriter) emitBlock() error {
	var scratch [binary.MaxVarintLen64]byte
	if err := w.bw.WriteByte(blockRecordKind); err != nil {
		w.err = err
		return err
	}
	n := binary.PutUvarint(scratch[:], uint64(w.buf.Len()))
	if _, err := w.bw.Write(scratch[:n]); err != nil {
		w.err = err
		return err
	}
	n = binary.PutUvarint(scratch[:], uint64(w.pending))
	if _, err := w.bw.Write(scratch[:n]); err != nil {
		w.err = err
		return err
	}
	if w.version >= 4 {
		col := encodeTimestampColumn(w.times)
		n = binary.PutUvarint(scratch[:], uint64(len(col)))
		if _, err := w.bw.Write(scratch[:n]); err != nil {
			w.err = err
			return err
		}
		if _, err := w.bw.Write(col); err != nil {
			w.err = err
			return err
		}
		w.times = w.times[:0]
	}
	if _, err := w.bw.Write(w.buf.Bytes()); err != nil {
		w.err = err
		return err
	}
	w.buf.Reset()
	clear(w.monitorID)
	w.pending = 0
	return nil
}

// encodeTimestampColumn renders a v4 block's timestamp column: the
// first value as a uvarint base, the rest as signed (zigzag) varint
// deltas from their predecessor. Add already validated the values.
func encodeTimestampColumn(times []int64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	col := make([]byte, 0, len(times)*2)
	for i, t := range times {
		var n int
		if i == 0 {
			n = binary.PutUvarint(scratch[:], uint64(t))
		} else {
			n = binary.PutVarint(scratch[:], t-times[i-1])
		}
		col = append(col, scratch[:n]...)
	}
	return col
}

// Flush emits any partial final block and flushes the stream. Call it
// exactly once, after the last Add.
func (w *BlockWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.pending > 0 {
		if err := w.emitBlock(); err != nil {
			return err
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// encodeTraces writes the record stream for the given traces, interning
// monitor names into monitorID (ids continue from its current size).
func encodeTraces(bw recordWriter, traces []Trace, monitorID map[string]uint64) error {
	var scratch [binary.MaxVarintLen64]byte
	var a4 [4]byte
	for _, t := range traces {
		id, ok := monitorID[t.Monitor]
		if !ok {
			id = uint64(len(monitorID))
			monitorID[t.Monitor] = id
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			n := binary.PutUvarint(scratch[:], uint64(len(t.Monitor)))
			if _, err := bw.Write(scratch[:n]); err != nil {
				return err
			}
			if _, err := bw.WriteString(t.Monitor); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		n := binary.PutUvarint(scratch[:], id)
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(a4[:], uint32(t.Dst))
		if _, err := bw.Write(a4[:]); err != nil {
			return err
		}
		n = binary.PutUvarint(scratch[:], uint64(len(t.Hops)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		for _, h := range t.Hops {
			var flag byte
			if h.Responded() {
				flag |= 0x01
			}
			if h.QuotedTTL != 1 {
				flag |= 0x02
			}
			if err := bw.WriteByte(flag); err != nil {
				return err
			}
			if flag&0x01 != 0 {
				binary.BigEndian.PutUint32(a4[:], uint32(h.Addr))
				if _, err := bw.Write(a4[:]); err != nil {
					return err
				}
			}
			if flag&0x02 != 0 {
				if err := bw.WriteByte(byte(h.QuotedTTL)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Decode bounds on untrusted length fields: each caps the allocation a
// single corrupt field can trigger.
const (
	// maxMonitorNameLen bounds an interned monitor name (Ark names are
	// tens of bytes).
	maxMonitorNameLen = 1 << 16
	// maxHopCount bounds hops per trace (traceroute gap limits stop two
	// orders of magnitude earlier).
	maxHopCount = 1024
	// minTraceRecordBytes is the smallest encodable trace record (kind +
	// monitor id + dst + hop count), used to sanity-check a v3 block's
	// claimed traceCount against its payload size.
	minTraceRecordBytes = 7
	// maxTraceCapHint caps the slice capacity pre-allocated from a v3
	// block's traceCount header, so a lying header cannot balloon the
	// heap before the payload disproves it.
	maxTraceCapHint = 1 << 16
)

// countReader counts bytes consumed from the underlying stream, so a
// decoder can report absolute byte offsets through bufio read-ahead
// (offset = consumed - buffered).
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// BinaryReader streams traces from the binary format (either version)
// one at a time, so corpora larger than memory can feed a
// core.Collector directly. Every length field, count, and interned
// index is validated before use; failures surface as *CorruptError
// with byte-offset context, and DecodeOptions.Permissive lets v3
// streams skip corrupt blocks instead of aborting.
type BinaryReader struct {
	br       *bufio.Reader
	cr       *countReader
	version  byte
	opt      DecodeOptions
	stats    *DecodeStats
	monitors []string
	err      error
	// blockIdx is the index of the v3 block being decoded (-1 before
	// the first block and for flat v2 streams).
	blockIdx int
	// pending holds the remaining traces of the current v3 block. Next
	// hands out copies, so its backing array, the payload buffer and the
	// decoder scratch are all reused from block to block.
	pending []Trace
	pendIdx int
	payload []byte
	dec     blockDecoder
}

// NewBinaryReader validates the magic and returns a streaming reader
// for either binary format version with strict (abort-on-corruption)
// decoding.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return NewBinaryReaderOpts(r, DecodeOptions{})
}

// NewBinaryReaderOpts is NewBinaryReader with explicit corrupt-input
// handling options.
func NewBinaryReaderOpts(r io.Reader, opt DecodeOptions) (*BinaryReader, error) {
	cr := &countReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<16)
	stats := opt.sink()
	version, cerr := decodeMagic(br)
	if cerr != nil {
		stats.record(cerr.Class)
		return nil, cerr
	}
	return &BinaryReader{br: br, cr: cr, version: version, opt: opt, stats: stats, blockIdx: -1}, nil
}

// decodeMagic consumes and validates the 5-byte magic, returning the
// format version.
func decodeMagic(br *bufio.Reader) (byte, *CorruptError) {
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, &CorruptError{Block: -1, Kind: "magic", Class: CorruptTruncated, Cause: noEOF(err)}
	}
	if magic != binaryMagic && magic != binaryMagicV3 && magic != binaryMagicV4 {
		return 0, &CorruptError{Block: -1, Kind: "magic", Class: CorruptBadMagic, Cause: fmt.Errorf("bad magic %q", magic[:])}
	}
	return magic[4], nil
}

// offset is the absolute position of the next undecoded byte.
func (r *BinaryReader) offset() int64 {
	return r.cr.n - int64(r.br.Buffered())
}

// corruptErr builds a typed decode failure at the current offset and
// counts its class; callers decide whether it is fatal or skippable.
func (r *BinaryReader) corruptErr(class CorruptClass, kind string, cause error) *CorruptError {
	r.stats.record(class)
	return &CorruptError{Offset: r.offset(), Block: r.blockIdx, Kind: kind, Class: class, Cause: cause}
}

// fatal makes the error sticky and settles the consumed-bytes counter.
func (r *BinaryReader) fatal(e *CorruptError) error {
	r.err = e
	r.stats.BytesConsumed = r.offset()
	return e
}

// finishEOF marks the clean end of the stream.
func (r *BinaryReader) finishEOF() {
	r.err = io.EOF
	r.stats.BytesConsumed = r.offset()
}

// varintClass separates truncation from malformed-varint failures.
func varintClass(err error) CorruptClass {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return CorruptTruncated
	}
	return CorruptBadVarint
}

// noEOF upgrades a bare EOF inside a record to ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next trace, or io.EOF when the stream ends cleanly.
// Decode failures are *CorruptError; once one is returned (or EOF), the
// reader keeps returning it.
func (r *BinaryReader) Next() (Trace, error) {
	if r.err != nil {
		return Trace{}, r.err
	}
	if r.version >= 3 {
		for r.pendIdx >= len(r.pending) {
			if err := r.fillBlock(); err != nil {
				return Trace{}, err
			}
		}
		t := r.pending[r.pendIdx]
		r.pendIdx++
		r.stats.TracesDecoded++
		return t, nil
	}
	t, err := r.nextRecord()
	if err != nil {
		return Trace{}, err
	}
	r.stats.TracesDecoded++
	return t, nil
}

// nextRecord decodes the next trace from a flat v2 record stream. v3/v4
// block payloads hold the same records but decode in place through
// decodeBlockPayload, which must stay error-for-error identical to this
// reader.
func (r *BinaryReader) nextRecord() (Trace, error) {
	for {
		kind, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				r.finishEOF()
				return Trace{}, io.EOF
			}
			return Trace{}, r.fatal(r.corruptErr(CorruptTruncated, "trace", err))
		}
		switch kind {
		case 0:
			if err := r.readMonitorDef(); err != nil {
				return Trace{}, err
			}
		case 1:
			return r.readTraceRecord()
		default:
			return Trace{}, r.fatal(r.corruptErr(CorruptBadKind, "trace",
				fmt.Errorf("unknown record kind %d", kind)))
		}
	}
}

// readMonitorDef decodes a monitor definition record, interning the
// name as the next sequential id.
func (r *BinaryReader) readMonitorDef() error {
	mlen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.fatal(r.corruptErr(varintClass(err), "monitor", err))
	}
	if mlen > maxMonitorNameLen {
		return r.fatal(r.corruptErr(CorruptOversizedLen, "monitor",
			fmt.Errorf("monitor name length %d exceeds %d", mlen, maxMonitorNameLen)))
	}
	name := make([]byte, mlen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return r.fatal(r.corruptErr(CorruptTruncated, "monitor", noEOF(err)))
	}
	r.monitors = append(r.monitors, string(name))
	return nil
}

// readTraceRecord decodes a trace record body (after its kind byte).
func (r *BinaryReader) readTraceRecord() (Trace, error) {
	id, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Trace{}, r.fatal(r.corruptErr(varintClass(err), "trace", err))
	}
	// Bounds-check the interned id: corrupt input must not index the
	// monitor table blind.
	if id >= uint64(len(r.monitors)) {
		return Trace{}, r.fatal(r.corruptErr(CorruptBadMonitorID, "trace",
			fmt.Errorf("monitor id %d with %d defined", id, len(r.monitors))))
	}
	var a4 [4]byte
	if _, err := io.ReadFull(r.br, a4[:]); err != nil {
		return Trace{}, r.fatal(r.corruptErr(CorruptTruncated, "trace", noEOF(err)))
	}
	t := Trace{Monitor: r.monitors[id], Dst: inet.Addr(binary.BigEndian.Uint32(a4[:]))}
	hops, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Trace{}, r.fatal(r.corruptErr(varintClass(err), "trace", err))
	}
	if hops > maxHopCount {
		return Trace{}, r.fatal(r.corruptErr(CorruptOversizedLen, "trace",
			fmt.Errorf("hop count %d exceeds %d", hops, maxHopCount)))
	}
	t.Hops = make([]Hop, hops)
	for i := range t.Hops {
		flag, err := r.br.ReadByte()
		if err != nil {
			return Trace{}, r.fatal(r.corruptErr(CorruptTruncated, "trace", noEOF(err)))
		}
		h := Hop{QuotedTTL: 1}
		if flag&0x01 != 0 {
			if _, err := io.ReadFull(r.br, a4[:]); err != nil {
				return Trace{}, r.fatal(r.corruptErr(CorruptTruncated, "trace", noEOF(err)))
			}
			h.Addr = inet.Addr(binary.BigEndian.Uint32(a4[:]))
		}
		if flag&0x02 != 0 {
			q, err := r.br.ReadByte()
			if err != nil {
				return Trace{}, r.fatal(r.corruptErr(CorruptTruncated, "trace", noEOF(err)))
			}
			h.QuotedTTL = int8(q)
		}
		t.Hops[i] = h
	}
	return t, nil
}

// blockFrame is one length-prefixed v3/v4 block lifted off the stream.
type blockFrame struct {
	idx     int
	count   int
	off     int64 // absolute offset of the payload's first byte
	payload []byte
	// times is the decoded v4 timestamp column (len == count), nil for
	// v3 frames.
	times []int64
}

// readFrame reads the next v3/v4 block frame into buf's backing array
// (allocating a larger one when buf is too small), returning io.EOF at
// the clean end of the stream. In permissive mode, frames whose headers are
// self-inconsistent (traceCount impossible for the payload size) or
// whose payloads are truncated are counted, skipped, and the next frame
// is tried — the payload length gives the boundary to resynchronise on.
// Corruption that destroys the framing itself (bad kind byte, malformed
// or oversized length varints) is fatal in either mode: without an
// intact length prefix there is no next frame to find.
func (r *BinaryReader) readFrame(buf []byte) (blockFrame, error) {
	for {
		kind, err := r.br.ReadByte()
		if err == io.EOF {
			r.finishEOF()
			return blockFrame{}, io.EOF
		}
		if err != nil {
			return blockFrame{}, r.fatal(r.corruptErr(CorruptTruncated, "block", err))
		}
		r.blockIdx++
		if kind != blockRecordKind {
			return blockFrame{}, r.fatal(r.corruptErr(CorruptBadKind, "block",
				fmt.Errorf("record kind %d at block frame", kind)))
		}
		plen, err := binary.ReadUvarint(r.br)
		if err != nil {
			return blockFrame{}, r.fatal(r.corruptErr(varintClass(err), "block", err))
		}
		if plen > maxBlockBytes {
			return blockFrame{}, r.fatal(r.corruptErr(CorruptOversizedLen, "block",
				fmt.Errorf("block payload %d bytes exceeds %d", plen, maxBlockBytes)))
		}
		count, err := binary.ReadUvarint(r.br)
		if err != nil {
			return blockFrame{}, r.fatal(r.corruptErr(varintClass(err), "block", err))
		}
		// v4 frames carry the timestamp column length next; it is part of
		// the framing, so a malformed or oversized value is fatal in either
		// mode (there is no boundary left to resynchronise on without it).
		var tsLen uint64
		if r.version >= 4 {
			tsLen, err = binary.ReadUvarint(r.br)
			if err != nil {
				return blockFrame{}, r.fatal(r.corruptErr(varintClass(err), "block", err))
			}
			if tsLen > maxBlockBytes {
				return blockFrame{}, r.fatal(r.corruptErr(CorruptOversizedLen, "block",
					fmt.Errorf("timestamp column %d bytes exceeds %d", tsLen, maxBlockBytes)))
			}
		}
		if count > plen/minTraceRecordBytes {
			e := r.corruptErr(CorruptCountMismatch, "block",
				fmt.Errorf("%d traces cannot fit in %d payload bytes", count, plen))
			if !r.opt.Permissive {
				return blockFrame{}, r.fatal(e)
			}
			r.stats.BlocksSkipped++
			r.stats.TracesDropped += int64(count)
			if _, err := r.br.Discard(int(tsLen) + int(plen)); err != nil {
				r.finishEOF()
				return blockFrame{}, io.EOF
			}
			continue
		}
		var times []int64
		if r.version >= 4 {
			tsOff := r.offset()
			tsBuf := make([]byte, tsLen)
			if _, err := io.ReadFull(r.br, tsBuf); err != nil {
				e := r.corruptErr(CorruptTruncated, "block", noEOF(err))
				if !r.opt.Permissive {
					return blockFrame{}, r.fatal(e)
				}
				r.stats.BlocksSkipped++
				r.stats.TracesDropped += int64(count)
				r.finishEOF()
				return blockFrame{}, io.EOF
			}
			var cerr *CorruptError
			times, cerr = decodeTimestampColumn(tsBuf, tsOff, r.blockIdx, int(count))
			if cerr != nil {
				r.stats.record(cerr.Class)
				if !r.opt.Permissive {
					return blockFrame{}, r.fatal(cerr)
				}
				// The column is damaged but the framing survives: skip
				// this block's payload and resynchronise on the next frame.
				r.stats.BlocksSkipped++
				r.stats.TracesDropped += int64(count)
				if _, err := r.br.Discard(int(plen)); err != nil {
					r.finishEOF()
					return blockFrame{}, io.EOF
				}
				continue
			}
		}
		off := r.offset()
		if uint64(cap(buf)) < plen {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := io.ReadFull(r.br, payload); err != nil {
			e := r.corruptErr(CorruptTruncated, "block", noEOF(err))
			if !r.opt.Permissive {
				return blockFrame{}, r.fatal(e)
			}
			r.stats.BlocksSkipped++
			r.stats.TracesDropped += int64(count)
			r.finishEOF()
			return blockFrame{}, io.EOF
		}
		return blockFrame{idx: r.blockIdx, count: int(count), off: off, payload: payload, times: times}, nil
	}
}

// decodeTimestampColumn parses a v4 timestamp column into absolute Unix
// seconds. Every failure mode — column exhausted before count entries,
// trailing bytes after them, a negative delta (regressions cannot occur
// in a well-formed stream), or a value past maxV4Time — is
// CorruptBadTimestamp; base locates the column's first byte in the
// outer stream.
func decodeTimestampColumn(buf []byte, base int64, blockIdx, count int) ([]int64, *CorruptError) {
	bad := func(off int, cause error) *CorruptError {
		return &CorruptError{Offset: base + int64(off), Block: blockIdx, Kind: "block",
			Class: CorruptBadTimestamp, Cause: cause}
	}
	if count == 0 {
		if len(buf) != 0 {
			return nil, bad(0, fmt.Errorf("%d column bytes for an empty block", len(buf)))
		}
		return nil, nil
	}
	times := make([]int64, count)
	first, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, bad(0, fmt.Errorf("malformed timestamp base"))
	}
	if first > maxV4Time {
		return nil, bad(0, fmt.Errorf("timestamp %d exceeds %d", first, int64(maxV4Time)))
	}
	pos := n
	t := int64(first)
	times[0] = t
	for i := 1; i < count; i++ {
		d, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return nil, bad(pos, fmt.Errorf("column exhausted at entry %d of %d", i, count))
		}
		pos += n
		if d < 0 {
			return nil, bad(pos, fmt.Errorf("negative delta %d at entry %d (timestamps must be non-decreasing)", d, i))
		}
		if d > maxV4Time-t {
			return nil, bad(pos, fmt.Errorf("timestamp exceeds %d at entry %d", int64(maxV4Time), i))
		}
		t += d
		times[i] = t
	}
	if pos != len(buf) {
		return nil, bad(pos, fmt.Errorf("%d trailing column bytes after %d entries", len(buf)-pos, count))
	}
	return times, nil
}

// fillBlock lifts and decodes the next v3/v4 block into pending. A
// corrupt payload is skipped and counted in permissive mode (blocks are
// self-contained, so dropping one loses only its own traces) and fatal
// otherwise. The traces escape to the caller, so their hops move out of
// the decoder's scratch into a slab of their own.
func (r *BinaryReader) fillBlock() error {
	fr, err := r.readFrame(r.payload)
	if err != nil {
		return err
	}
	r.payload = fr.payload
	clear(r.pending)
	traces, derr := r.dec.decodeFrame(r.pending, &fr)
	r.stats.settleBlock(fr.count, derr, r.opt.Permissive)
	if derr != nil {
		if r.opt.Permissive {
			r.pending, r.pendIdx = r.pending[:0], 0
			return nil
		}
		return r.fatal(derr)
	}
	r.dec.detach(traces)
	r.pending, r.pendIdx = traces, 0
	return nil
}

// decodeFrame decodes a lifted frame's payload with decodeBlockPayload,
// holds the result to the frame's trace count and stamps the v4
// timestamp column onto it. The traces' hops alias the decoder's scratch
// until its next decode.
func (d *blockDecoder) decodeFrame(dst []Trace, fr *blockFrame) ([]Trace, *CorruptError) {
	traces, derr := d.decodeBlockPayload(dst, fr.payload, fr.off, fr.idx, fr.count)
	if derr == nil && len(traces) != fr.count {
		derr = &CorruptError{Offset: fr.off, Block: fr.idx, Kind: "block", Class: CorruptCountMismatch,
			Cause: fmt.Errorf("header claims %d traces, payload holds %d", fr.count, len(traces))}
	}
	if derr != nil {
		return nil, derr
	}
	applyTimes(traces, fr.times)
	return traces, nil
}

// detach moves the hops of traces, the decoder's last decode, out of its
// scratch into one exactly sized slab, carved with cap == len as
// decodeBlockPayload carves them.
func (d *blockDecoder) detach(traces []Trace) {
	slab := make([]Hop, len(d.hops))
	copy(slab, d.hops)
	for i := range traces {
		n := len(traces[i].Hops)
		traces[i].Hops = slab[:n:n]
		slab = slab[n:]
	}
}

// applyTimes stamps a decoded v4 block's timestamp column onto its
// traces; a nil column (v3) is a no-op. Callers have already verified
// len(traces) == the frame's count == len(times).
func applyTimes(traces []Trace, times []int64) {
	if times == nil {
		return
	}
	for i := range traces {
		traces[i].Time = times[i]
	}
}

// ReadBinary reads a whole binary dataset (any version) into memory.
func ReadBinary(r io.Reader) (*Dataset, error) {
	return ReadBinaryOpts(r, DecodeOptions{})
}

// ReadBinaryOpts is ReadBinary with explicit corrupt-input handling
// options.
func ReadBinaryOpts(r io.Reader, opt DecodeOptions) (*Dataset, error) {
	br, err := NewBinaryReaderOpts(r, opt)
	if err != nil {
		return nil, err
	}
	return readAll(br)
}

// readAll drains a streaming reader into a dataset.
func readAll(br *BinaryReader) (*Dataset, error) {
	d := &Dataset{}
	for {
		t, err := br.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		d.Traces = append(d.Traces, t)
	}
}

// decodeBlockPayload decodes one self-contained v3/v4 block payload into
// dst[:0] and returns the traces; base and blockIdx locate its errors in
// the outer stream, and count (the frame's trace count) only sizes dst.
// It does not touch the decode stats; the caller settles the outcome.
//
// The payload is a v2 record stream, walked in place with a cursor: the
// cursor consumes exactly the bytes the flat v2 reader's
// binary.ReadUvarint, ReadByte and io.ReadFull calls would, so every
// *CorruptError (class, kind, block, offset and message) equals the one a
// BinaryReader over the same record stream reports. The hops of every
// trace in the block stay in the decoder's hop scratch, valid until its
// next decode (detach moves them out), and each trace's Hops is carved
// from it with cap == len, so appending to one trace's hops reallocates
// instead of overwriting the next trace's.
func (d *blockDecoder) decodeBlockPayload(dst []Trace, payload []byte, base int64, blockIdx, count int) ([]Trace, *CorruptError) {
	c := payloadCursor{buf: payload, base: base, blockIdx: blockIdx}
	if n := min(count, maxTraceCapHint); cap(dst) < n {
		dst = make([]Trace, 0, n)
	}
	dst = dst[:0]
	d.hops, d.hopCounts, d.monitors = d.hops[:0], d.hopCounts[:0], d.monitors[:0]
	for c.pos < len(c.buf) {
		kind := c.buf[c.pos]
		c.pos++
		switch kind {
		case 0:
			mlen, err := c.uvarint()
			if err != nil {
				return nil, c.fail(varintClass(err), "monitor", err)
			}
			if mlen > maxMonitorNameLen {
				return nil, c.fail(CorruptOversizedLen, "monitor",
					fmt.Errorf("monitor name length %d exceeds %d", mlen, maxMonitorNameLen))
			}
			name, ok := c.take(mlen)
			if !ok {
				return nil, c.fail(CorruptTruncated, "monitor", io.ErrUnexpectedEOF)
			}
			d.monitors = append(d.monitors, string(name))
		case 1:
			t, cerr := d.traceRecord(&c)
			if cerr != nil {
				return nil, cerr
			}
			dst = append(dst, t)
		default:
			return nil, c.fail(CorruptBadKind, "trace", fmt.Errorf("unknown record kind %d", kind))
		}
	}
	hops := d.hops
	for i, n := range d.hopCounts {
		dst[i].Hops = hops[:n:n]
		hops = hops[n:]
	}
	return dst, nil
}

// traceRecord decodes a trace record body (after its kind byte). Its
// hops go to the decoder's scratch; decodeBlockPayload carves Hops once
// the block is complete.
func (d *blockDecoder) traceRecord(c *payloadCursor) (Trace, *CorruptError) {
	id, err := c.uvarint()
	if err != nil {
		return Trace{}, c.fail(varintClass(err), "trace", err)
	}
	if id >= uint64(len(d.monitors)) {
		return Trace{}, c.fail(CorruptBadMonitorID, "trace",
			fmt.Errorf("monitor id %d with %d defined", id, len(d.monitors)))
	}
	a4, ok := c.take(4)
	if !ok {
		return Trace{}, c.fail(CorruptTruncated, "trace", io.ErrUnexpectedEOF)
	}
	t := Trace{Monitor: d.monitors[id], Dst: inet.Addr(binary.BigEndian.Uint32(a4))}
	hops, err := c.uvarint()
	if err != nil {
		return Trace{}, c.fail(varintClass(err), "trace", err)
	}
	if hops > maxHopCount {
		return Trace{}, c.fail(CorruptOversizedLen, "trace",
			fmt.Errorf("hop count %d exceeds %d", hops, maxHopCount))
	}
	for i := uint64(0); i < hops; i++ {
		if c.pos == len(c.buf) {
			return Trace{}, c.fail(CorruptTruncated, "trace", io.ErrUnexpectedEOF)
		}
		flag := c.buf[c.pos]
		c.pos++
		h := Hop{QuotedTTL: 1}
		if flag&0x01 != 0 {
			a4, ok := c.take(4)
			if !ok {
				return Trace{}, c.fail(CorruptTruncated, "trace", io.ErrUnexpectedEOF)
			}
			h.Addr = inet.Addr(binary.BigEndian.Uint32(a4))
		}
		if flag&0x02 != 0 {
			if c.pos == len(c.buf) {
				return Trace{}, c.fail(CorruptTruncated, "trace", io.ErrUnexpectedEOF)
			}
			h.QuotedTTL = int8(c.buf[c.pos])
			c.pos++
		}
		d.hops = append(d.hops, h)
	}
	d.hopCounts = append(d.hopCounts, int(hops))
	return t, nil
}

// blockDecoder holds the scratch reused across block decodes, so a
// block costs one string per monitor definition, plus its trace slice
// when dst is too small and, for traces that escape, the slab detach
// allocates.
type blockDecoder struct {
	hops      []Hop
	hopCounts []int
	monitors  []string
}

// payloadCursor walks a block payload in place.
type payloadCursor struct {
	buf      []byte
	pos      int
	base     int64
	blockIdx int
}

// fail builds a typed decode failure at the cursor.
func (c *payloadCursor) fail(class CorruptClass, kind string, cause error) *CorruptError {
	return &CorruptError{Offset: c.base + int64(c.pos), Block: c.blockIdx, Kind: kind, Class: class, Cause: cause}
}

// take consumes the next n bytes. When fewer remain it consumes them all
// and reports false, as io.ReadFull does.
func (c *payloadCursor) take(n uint64) ([]byte, bool) {
	if uint64(len(c.buf)-c.pos) < n {
		c.pos = len(c.buf)
		return nil, false
	}
	b := c.buf[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return b, true
}

// uvarint is binary.ReadUvarint over the cursor: it consumes the same
// bytes and returns the same errors — io.EOF before the first byte,
// io.ErrUnexpectedEOF after it, and binary's overflow error.
func (c *payloadCursor) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if c.pos == len(c.buf) {
			if i > 0 {
				return x, io.ErrUnexpectedEOF
			}
			return x, io.EOF
		}
		b := c.buf[c.pos]
		c.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errVarintOverflow
}

// errVarintOverflow is the error binary.ReadUvarint returns for a varint
// longer than 64 bits; payloadCursor.uvarint returns the same value.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	return err
}()
