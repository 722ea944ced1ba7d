package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mapit/internal/inet"
)

// Spill segment codec: the on-disk form of the out-of-core evidence
// store (DESIGN.md §11). When a collector's memory budget is exceeded it
// flushes each in-memory dedup structure as one *run* — a sorted, unique
// snapshot of that structure — and later k-way merges the runs back
// under a fixed memory ceiling. Runs are columnar (struct-of-arrays in
// fixed-size pages) with delta + varint encoding, so a sorted adjacency
// costs ~2–4 bytes on disk instead of ~50 in a Go map.
//
// Layout, mirroring the MTRC v3 block framing (kind byte, length
// prefix, entry count) with an added integrity checksum:
//
//	magic   "MTRS" '\x01'                       (once per spill file)
//	run     kind byte:
//	          3: adjacency run   4: address run
//	        count      uvarint  (entries in the run)
//	        payloadLen uvarint  (payload bytes)
//	        crc        4 bytes little endian — CRC-32C of the payload
//	        payload    — pages, decoded strictly sequentially:
//	          n uvarint (1..SegmentPageEntries, ≤ remaining entries)
//	          adjacency page: n × uvarint   First-column deltas
//	                          n × zigzag    Second-column deltas
//	          address page:   n × uvarint   deltas
//
// Delta chains continue across page boundaries. An adjacency run must
// be strictly increasing in (First, Second); an address run strictly
// increasing. The unsigned First/address deltas make the primary order
// non-decreasing by construction; the explicit strictness checks and
// the CRC catch everything else, surfacing as *CorruptError with the
// PR 4 taxonomy (classes CorruptChecksum and CorruptUnsorted are the
// segment-specific additions).
var segmentMagic = [5]byte{'M', 'T', 'R', 'S', 1}

// Run kinds continue the MTRC record-kind numbering (0 monitor, 1
// trace, 2 v3 block).
const (
	// AdjRunKind frames a sorted unique adjacency run.
	AdjRunKind = 3
	// AddrRunKind frames a sorted unique address run.
	AddrRunKind = 4
)

// SegmentPageEntries is the page granularity of the columnar payload: a
// cursor decodes one page of each column into fixed buffers at a time,
// so its working memory is O(page), never O(run).
const SegmentPageEntries = 4096

// segHeaderMax bounds the decoded run-frame header (kind + two uvarints
// + crc).
const segHeaderMax = 1 + 2*binary.MaxVarintLen64 + 4

// crcTable is the Castagnoli polynomial table shared by writer and
// cursors.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentRun locates one run inside a spill segment file. The collector
// records it at write time and hands it back to Open*Run; the cursor
// cross-checks the frame against it, so corruption of the header is
// detected even though the metadata never leaves the process.
type SegmentRun struct {
	// Kind is AdjRunKind or AddrRunKind.
	Kind byte
	// Count is the number of entries in the run.
	Count int
	// Offset is the absolute byte offset of the run's kind byte.
	Offset int64
	// Size is the total frame size in bytes (header + payload).
	Size int64
}

// SegmentWriter appends runs to one spill segment file. Not safe for
// concurrent use; every spilling party (a collector's sanitise worker
// slot) owns its own writer.
type SegmentWriter struct {
	bw  *bufio.Writer
	off int64
	// payload is the reusable run-payload staging buffer; a run is the
	// flush of an in-memory structure, so staging it whole costs no
	// more than the structure it replaces.
	payload bytes.Buffer
}

// NewSegmentWriter writes the segment magic and returns a writer.
func NewSegmentWriter(w io.Writer) (*SegmentWriter, error) {
	sw := &SegmentWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := sw.bw.Write(segmentMagic[:]); err != nil {
		return nil, err
	}
	sw.off = int64(len(segmentMagic))
	return sw, nil
}

// Offset returns the file offset the next run would start at.
func (sw *SegmentWriter) Offset() int64 { return sw.off }

// Flush flushes buffered frames to the underlying writer. Call it
// before opening cursors on the runs written so far.
func (sw *SegmentWriter) Flush() error { return sw.bw.Flush() }

// AppendAdjacencyRun encodes one sorted, duplicate-free adjacency run.
func (sw *SegmentWriter) AppendAdjacencyRun(adjs []Adjacency) (SegmentRun, error) {
	sw.payload.Reset()
	var scratch [binary.MaxVarintLen64]byte
	var prevFirst, prevSecond uint32
	for lo := 0; lo < len(adjs); lo += SegmentPageEntries {
		page := adjs[lo:min(lo+SegmentPageEntries, len(adjs))]
		n := binary.PutUvarint(scratch[:], uint64(len(page)))
		sw.payload.Write(scratch[:n])
		pf := prevFirst
		for _, a := range page {
			n := binary.PutUvarint(scratch[:], uint64(uint32(a.First)-pf))
			sw.payload.Write(scratch[:n])
			pf = uint32(a.First)
		}
		for _, a := range page {
			d := int64(uint32(a.Second)) - int64(prevSecond)
			n := binary.PutUvarint(scratch[:], zigzag(d))
			sw.payload.Write(scratch[:n])
			prevSecond = uint32(a.Second)
		}
		prevFirst = pf
	}
	return sw.appendRun(AdjRunKind, len(adjs))
}

// AppendAddrRun encodes one sorted, duplicate-free address run.
func (sw *SegmentWriter) AppendAddrRun(addrs []inet.Addr) (SegmentRun, error) {
	sw.payload.Reset()
	var scratch [binary.MaxVarintLen64]byte
	var prev uint32
	for lo := 0; lo < len(addrs); lo += SegmentPageEntries {
		page := addrs[lo:min(lo+SegmentPageEntries, len(addrs))]
		n := binary.PutUvarint(scratch[:], uint64(len(page)))
		sw.payload.Write(scratch[:n])
		for _, a := range page {
			n := binary.PutUvarint(scratch[:], uint64(uint32(a)-prev))
			sw.payload.Write(scratch[:n])
			prev = uint32(a)
		}
	}
	return sw.appendRun(AddrRunKind, len(addrs))
}

// appendRun frames the staged payload.
func (sw *SegmentWriter) appendRun(kind byte, count int) (SegmentRun, error) {
	run := SegmentRun{Kind: kind, Count: count, Offset: sw.off}
	var scratch [binary.MaxVarintLen64]byte
	if err := sw.bw.WriteByte(kind); err != nil {
		return SegmentRun{}, err
	}
	written := int64(1)
	n := binary.PutUvarint(scratch[:], uint64(count))
	if _, err := sw.bw.Write(scratch[:n]); err != nil {
		return SegmentRun{}, err
	}
	written += int64(n)
	n = binary.PutUvarint(scratch[:], uint64(sw.payload.Len()))
	if _, err := sw.bw.Write(scratch[:n]); err != nil {
		return SegmentRun{}, err
	}
	written += int64(n)
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(sw.payload.Bytes(), crcTable))
	if _, err := sw.bw.Write(scratch[:4]); err != nil {
		return SegmentRun{}, err
	}
	written += 4
	if _, err := sw.bw.Write(sw.payload.Bytes()); err != nil {
		return SegmentRun{}, err
	}
	written += int64(sw.payload.Len())
	run.Size = written
	sw.off += written
	return run, nil
}

// zigzag maps a signed delta onto the unsigned varint space.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// segCursor is the shared streaming frame decoder under both cursor
// types: it validates the header against the expected SegmentRun,
// maintains the running CRC over the payload, and hands out page entry
// counts. All reads are sequential through one fixed-size buffer.
type segCursor struct {
	br      *bufio.Reader
	run     SegmentRun
	crc     uint32
	wantCRC uint32
	// remain counts undecoded payload bytes; entries counts undecoded
	// run entries. Both must hit zero together.
	remain  int64
	entries int
	// pageLeft counts entries still buffered from the current page.
	pageIdx  int
	consumed int64
	one      [1]byte
	err      error
}

// openSegCursor validates the frame header at run.Offset.
func openSegCursor(ra io.ReaderAt, run SegmentRun) (*segCursor, error) {
	if run.Size <= 0 || run.Count < 0 {
		return nil, &CorruptError{Offset: run.Offset, Block: -1, Kind: "segment", Class: CorruptCountMismatch,
			Cause: fmt.Errorf("impossible run metadata (count %d, size %d)", run.Count, run.Size)}
	}
	// Buffer sizes scale down to the run so a merge over thousands of
	// tiny runs does not pay a full page of memory per cursor.
	bufSize := int(min(run.Size, 1<<15))
	c := &segCursor{
		br:  bufio.NewReaderSize(io.NewSectionReader(ra, run.Offset, run.Size), bufSize),
		run: run,
	}
	kind, err := c.br.ReadByte()
	if err != nil {
		return nil, c.corrupt(CorruptTruncated, noEOF(err))
	}
	c.consumed++
	if kind != run.Kind {
		return nil, c.corrupt(CorruptBadKind, fmt.Errorf("run kind %d, expected %d", kind, run.Kind))
	}
	count, err := c.readHeaderUvarint()
	if err != nil {
		return nil, err
	}
	if count != uint64(run.Count) {
		return nil, c.corrupt(CorruptCountMismatch, fmt.Errorf("run claims %d entries, expected %d", count, run.Count))
	}
	plen, err := c.readHeaderUvarint()
	if err != nil {
		return nil, err
	}
	if plen > maxBlockBytes {
		return nil, c.corrupt(CorruptOversizedLen, fmt.Errorf("run payload %d bytes exceeds %d", plen, maxBlockBytes))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(c.br, crcb[:]); err != nil {
		return nil, c.corrupt(CorruptTruncated, noEOF(err))
	}
	c.consumed += 4
	c.wantCRC = binary.LittleEndian.Uint32(crcb[:])
	if c.consumed+int64(plen) != run.Size {
		return nil, c.corrupt(CorruptCountMismatch,
			fmt.Errorf("header %d + payload %d bytes disagree with run size %d", c.consumed, plen, run.Size))
	}
	c.remain = int64(plen)
	c.entries = run.Count
	return c, nil
}

// readHeaderUvarint decodes a pre-payload uvarint (not CRC-covered).
func (c *segCursor) readHeaderUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(headerByteReader{c})
	if err != nil {
		return 0, c.corrupt(varintClass(err), err)
	}
	return v, nil
}

// headerByteReader reads header bytes, counting but not checksumming.
type headerByteReader struct{ c *segCursor }

func (h headerByteReader) ReadByte() (byte, error) {
	b, err := h.c.br.ReadByte()
	if err == nil {
		h.c.consumed++
	}
	return b, noEOF(err)
}

// ReadByte reads one payload byte, folding it into the running CRC.
// binary.ReadUvarint consumes the columns through this.
func (c *segCursor) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return 0, noEOF(err)
	}
	c.consumed++
	c.remain--
	c.one[0] = b
	c.crc = crc32.Update(c.crc, crcTable, c.one[:])
	return b, nil
}

// corrupt builds the typed failure and makes it sticky.
func (c *segCursor) corrupt(class CorruptClass, cause error) error {
	e := &CorruptError{Offset: c.run.Offset + c.consumed, Block: -1, Kind: "segment", Class: class, Cause: cause}
	c.err = e
	return e
}

// payloadUvarint decodes one CRC-covered uvarint, guarding the payload
// boundary.
func (c *segCursor) payloadUvarint() (uint64, error) {
	before := c.remain
	v, err := binary.ReadUvarint(c)
	if err != nil {
		if before <= 0 {
			return 0, c.corrupt(CorruptCountMismatch, fmt.Errorf("column data runs past the payload length"))
		}
		return 0, c.corrupt(varintClass(err), err)
	}
	if c.remain < 0 {
		return 0, c.corrupt(CorruptCountMismatch, fmt.Errorf("column data runs past the payload length"))
	}
	return v, nil
}

// nextPage returns the entry count of the next page, or 0 when the run
// is complete — at which point the byte count and CRC are settled.
func (c *segCursor) nextPage() (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.entries == 0 {
		if c.remain != 0 {
			return 0, c.corrupt(CorruptCountMismatch,
				fmt.Errorf("%d payload bytes left after the last entry", c.remain))
		}
		if c.crc != c.wantCRC {
			return 0, c.corrupt(CorruptChecksum,
				fmt.Errorf("payload crc %08x, header says %08x", c.crc, c.wantCRC))
		}
		return 0, nil
	}
	n, err := c.payloadUvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 || n > SegmentPageEntries || n > uint64(c.entries) {
		return 0, c.corrupt(CorruptOversizedLen,
			fmt.Errorf("page of %d entries (max %d, %d left in run)", n, SegmentPageEntries, c.entries))
	}
	c.entries -= int(n)
	return int(n), nil
}

// AdjacencyCursor streams one adjacency run back in sorted order with
// O(page) memory.
type AdjacencyCursor struct {
	c       *segCursor
	firsts  []uint32
	seconds []uint32
	idx     int
	n       int
	prevF   uint32
	prevS   uint32
	started bool
	done    bool
}

// OpenAdjacencyRun opens a cursor over an adjacency run.
func OpenAdjacencyRun(ra io.ReaderAt, run SegmentRun) (*AdjacencyCursor, error) {
	if run.Kind != AdjRunKind {
		return nil, &CorruptError{Offset: run.Offset, Block: -1, Kind: "segment", Class: CorruptBadKind,
			Cause: fmt.Errorf("run kind %d is not an adjacency run", run.Kind)}
	}
	c, err := openSegCursor(ra, run)
	if err != nil {
		return nil, err
	}
	page := min(SegmentPageEntries, max(run.Count, 1))
	return &AdjacencyCursor{
		c:       c,
		firsts:  make([]uint32, page),
		seconds: make([]uint32, page),
	}, nil
}

// Next returns the next adjacency, or io.EOF at the clean end of the
// run. Corruption surfaces as *CorruptError and is sticky.
func (ac *AdjacencyCursor) Next() (Adjacency, error) {
	for ac.idx >= ac.n {
		if ac.done {
			return Adjacency{}, io.EOF
		}
		if err := ac.fillPage(); err != nil {
			return Adjacency{}, err
		}
	}
	a := Adjacency{First: inet.Addr(ac.firsts[ac.idx]), Second: inet.Addr(ac.seconds[ac.idx])}
	ac.idx++
	return a, nil
}

// fillPage decodes the next page of both columns into the cursor's
// buffers, enforcing the strict (First, Second) ordering.
func (ac *AdjacencyCursor) fillPage() error {
	n, err := ac.c.nextPage()
	if err != nil {
		return err
	}
	if n == 0 {
		ac.done = true
		return nil
	}
	prev := ac.prevF
	for i := 0; i < n; i++ {
		d, err := ac.c.payloadUvarint()
		if err != nil {
			return err
		}
		v := uint64(prev) + d
		if v > 0xffffffff {
			return ac.c.corrupt(CorruptUnsorted, fmt.Errorf("First column overflows 32 bits"))
		}
		prev = uint32(v)
		ac.firsts[i] = prev
	}
	for i := 0; i < n; i++ {
		u, err := ac.c.payloadUvarint()
		if err != nil {
			return err
		}
		d := unzigzag(u)
		v := int64(ac.prevS) + d
		if v < 0 || v > 0xffffffff {
			return ac.c.corrupt(CorruptUnsorted, fmt.Errorf("Second column leaves 32 bits"))
		}
		var sameFirst bool
		if i > 0 {
			sameFirst = ac.firsts[i] == ac.firsts[i-1]
		} else if ac.started {
			sameFirst = ac.firsts[0] == ac.prevF
		}
		if sameFirst && d <= 0 {
			return ac.c.corrupt(CorruptUnsorted, fmt.Errorf("adjacency run not strictly increasing"))
		}
		ac.prevS = uint32(v)
		ac.seconds[i] = ac.prevS
	}
	ac.prevF = prev
	ac.started = true
	ac.idx, ac.n = 0, n
	return nil
}

// AddrCursor streams one address run back in sorted order with O(page)
// memory.
type AddrCursor struct {
	c       *segCursor
	addrs   []uint32
	idx     int
	n       int
	prev    uint32
	started bool
	done    bool
}

// OpenAddrRun opens a cursor over an address run.
func OpenAddrRun(ra io.ReaderAt, run SegmentRun) (*AddrCursor, error) {
	if run.Kind != AddrRunKind {
		return nil, &CorruptError{Offset: run.Offset, Block: -1, Kind: "segment", Class: CorruptBadKind,
			Cause: fmt.Errorf("run kind %d is not an address run", run.Kind)}
	}
	c, err := openSegCursor(ra, run)
	if err != nil {
		return nil, err
	}
	return &AddrCursor{c: c, addrs: make([]uint32, min(SegmentPageEntries, max(run.Count, 1)))}, nil
}

// Next returns the next address, or io.EOF at the clean end of the run.
func (ac *AddrCursor) Next() (inet.Addr, error) {
	for ac.idx >= ac.n {
		if ac.done {
			return 0, io.EOF
		}
		n, err := ac.c.nextPage()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			ac.done = true
			continue
		}
		for i := 0; i < n; i++ {
			d, err := ac.c.payloadUvarint()
			if err != nil {
				return 0, err
			}
			if ac.started && d == 0 {
				return 0, ac.c.corrupt(CorruptUnsorted, fmt.Errorf("address run not strictly increasing"))
			}
			v := uint64(ac.prev) + d
			if v > 0xffffffff {
				return 0, ac.c.corrupt(CorruptUnsorted, fmt.Errorf("address column overflows 32 bits"))
			}
			ac.prev = uint32(v)
			ac.started = true
			ac.addrs[i] = ac.prev
		}
		ac.idx, ac.n = 0, n
	}
	a := inet.Addr(ac.addrs[ac.idx])
	ac.idx++
	return a, nil
}
