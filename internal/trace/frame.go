package trace

// Frame path: a v3/v4 stream's blocks are self-contained, so one
// goroutine can lift block frames off the stream (framing checks, the v4
// timestamp column, a copy of the payload) while others decode the
// payloads. The outcomes settle back into DecodeStats in stream order,
// so a framed decode reports exactly what the streaming reader (Next)
// reports for the same bytes.

// A Frame is one v3/v4 block lifted off a stream by NextFrame, its
// payload not yet decoded.
type Frame struct {
	block blockFrame
	// end is the offset just past the payload: where the streaming
	// reader stops when this block's payload fails a strict decode.
	end int64
	// lifted is the reader's counters once this frame was lifted.
	lifted DecodeStats
}

// Payload returns the buffer holding the frame's payload, for reuse
// once the frame is decoded.
func (f *Frame) Payload() []byte { return f.block.payload }

// Traces returns the number of traces the frame's header declares.
func (f *Frame) Traces() int { return f.block.count }

// Framed reports whether the stream is block-framed (MTRC v3/v4), so
// that NextFrame applies.
func (r *BinaryReader) Framed() bool { return r.version >= 3 }

// NextFrame lifts the next block frame off a framed stream without
// decoding its payload, which it reads into buf's storage (allocating
// when buf is too small). It returns io.EOF at the clean end of the
// stream. Framing corruption is handled as Next handles it: skipped and
// counted when permissive wherever the frame boundary survives, a
// sticky *CorruptError otherwise. Corruption inside the payload is left
// to FrameDecoder.Decode. Next and NextFrame must not be mixed on one
// reader.
func (r *BinaryReader) NextFrame(buf []byte) (Frame, error) {
	if r.err != nil {
		return Frame{}, r.err
	}
	fr, err := r.readFrame(buf)
	if err != nil {
		return Frame{}, err
	}
	return Frame{block: fr, end: r.offset(), lifted: *r.stats}, nil
}

// FrameDecoder decodes lifted frames with the streaming reader's block
// decoder into scratch it reuses from frame to frame. The zero value is
// ready to use; it is not safe for concurrent use.
type FrameDecoder struct {
	dec    blockDecoder
	traces []Trace
}

// Decode decodes f's payload, holds it to the frame's trace count and
// stamps the v4 timestamps, failing exactly as the streaming reader
// fails on the same block. The traces and their hops alias the
// decoder's scratch and stay valid only until its next Decode; f's
// payload buffer may be reused as soon as Decode returns.
func (d *FrameDecoder) Decode(f *Frame) ([]Trace, *CorruptError) {
	traces, err := d.dec.decodeFrame(d.traces, &f.block)
	if err == nil {
		d.traces = traces
	}
	return traces, err
}

// settleBlock records one decoded block's outcome: clean, or corrupt
// with its class counted and, when permissive, skipped with its traces
// dropped.
func (s *DecodeStats) settleBlock(count int, err *CorruptError, permissive bool) {
	if err == nil {
		s.BlocksDecoded++
		return
	}
	s.record(err.Class)
	if permissive {
		s.BlocksSkipped++
		s.TracesDropped += int64(count)
	}
}

// Settle records the decode outcome of frame f in s as the streaming
// reader records a block it decodes, counting a clean frame's traces as
// decoded. Frames must settle in stream order into an s that holds only
// the outcomes of the frames settled before f. A strict failure (err
// non-nil, permissive false) ends the stream at f, as it ends the
// streaming reader: s then also takes the reader's counters from f's
// lifting, and the bytes consumed through f's payload.
func (s *DecodeStats) Settle(f *Frame, err *CorruptError, permissive bool) {
	s.settleBlock(f.block.count, err, permissive)
	switch {
	case err == nil:
		s.TracesDecoded += int64(f.block.count)
	case !permissive:
		stopped := f.lifted
		stopped.Merge(s)
		stopped.BytesConsumed = f.end
		*s = stopped
	}
}

// Merge adds the counters of a later decode, o, to s. BytesConsumed
// says where a decode stopped, so it becomes o's if o consumed any
// bytes.
func (s *DecodeStats) Merge(o *DecodeStats) {
	s.BlocksDecoded += o.BlocksDecoded
	s.BlocksSkipped += o.BlocksSkipped
	s.TracesDecoded += o.TracesDecoded
	s.TracesDropped += o.TracesDropped
	for c, n := range o.Errors {
		s.Errors[c] += n
	}
	if o.BytesConsumed != 0 {
		s.BytesConsumed = o.BytesConsumed
	}
}
