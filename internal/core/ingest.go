package core

import (
	"bufio"
	"io"

	"mapit/internal/trace"
)

// IngestOptions configures an Ingestor.
type IngestOptions struct {
	// Workers parallelises sanitisation and adjacency deduplication;
	// results are identical for any value. Zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int

	// Strict aborts on any binary-input corruption instead of skipping
	// corrupt v3 blocks and counting them in the decode stats.
	Strict bool

	// Spill bounds the collector's evidence memory for out-of-core
	// ingest. The zero value keeps everything in memory.
	Spill SpillConfig

	// TrackMonitors enables per-vantage-point evidence attribution
	// (Evidence.Monitors), the input of the snapshot package's
	// monitor→evidence query index.
	TrackMonitors bool
}

// Ingestor is the sniffing ingest pipeline shared by the mapit CLI and
// the mapitd daemon. It reads trace corpora in any supported format —
// text, JSONL, or binary MTRC v2/v3/v4, sniffed from the first bytes of
// each stream, so pipes and request bodies work (no seeking) — and
// feeds every trace into one retained parallel collector. Because the
// collector survives finalisation, an Ingestor supports incremental
// corpus growth: Ingest more batches after Finish and finalise again;
// each Finish returns the evidence of everything ingested so far.
//
// An Ingestor is not safe for concurrent use; callers that ingest from
// multiple goroutines must serialise (the serve package holds its own
// ingest lock).
type Ingestor struct {
	opt   IngestOptions
	coll  *ParallelCollector
	stats trace.DecodeStats
}

// NewIngestor returns an empty ingest pipeline.
func NewIngestor(opt IngestOptions) *Ingestor {
	coll := NewParallelCollectorSpill(opt.Workers, opt.Spill)
	if opt.TrackMonitors {
		coll.TrackMonitors()
	}
	return &Ingestor{opt: opt, coll: coll}
}

// Ingest sniffs the trace format of r from its first bytes and feeds
// every trace into the collector, returning how many traces the stream
// carried. Binary v3/v4 inputs stream frame by frame: Ingest only lifts
// each block frame off the stream, and a sanitise worker decodes and
// collects it, in stream order (corpora larger than memory work, and
// the spill budget applies). Flat v2 inputs stream record by record,
// and text and JSONL inputs are parsed whole. Unless Strict, corrupt
// binary v3/v4 blocks are skipped and tallied into DecodeStats. On
// error the evidence already collected remains intact — a failed batch
// never corrupts the pipeline — and holds exactly the traces before
// the failure, as the count says.
func (g *Ingestor) Ingest(r io.Reader) (int, error) {
	permissive := !g.opt.Strict
	// The stream's own sink: a framed stream's counters join the frames'
	// outcomes, settled in stream order, before they reach g.stats.
	var reader trace.DecodeStats
	stream, ds, err := sniff(r, trace.DecodeOptions{Permissive: permissive, Stats: &reader})
	switch {
	case err != nil:
		g.stats.Merge(&reader)
		return 0, err
	case ds != nil:
		return feedDataset(ds, g.add)
	case !stream.Framed():
		n, err := feedStream(stream, g.add)
		g.stats.Merge(&reader)
		return n, err
	}
	n, stats, err := g.coll.addFrames(stream, permissive, &reader)
	g.stats.Merge(&stats)
	return n, err
}

// add hands one trace to the collector.
func (g *Ingestor) add(t trace.Trace) error {
	g.coll.Add(t)
	return nil
}

// DecodeTraces sniffs the trace format of r from its first bytes —
// text, JSONL, or binary MTRC v2/v3/v4 — and delivers every decoded
// trace to fn in stream order, returning how many traces fn received.
// Binary inputs stream through trace.BinaryReader, a v3/v4 block at a
// time; text and JSONL inputs are parsed whole. A non-nil error from fn
// aborts the decode and is returned verbatim. The sliding-window paths
// (cmd/mapit replay, mapitd windowed ingest) sit on top of it; the
// Ingestor shares its sniffing and decodes v3/v4 blocks in its
// sanitise workers instead.
func DecodeTraces(r io.Reader, opt trace.DecodeOptions, fn func(trace.Trace) error) (int, error) {
	stream, ds, err := sniff(r, opt)
	switch {
	case err != nil:
		return 0, err
	case ds != nil:
		return feedDataset(ds, fn)
	}
	return feedStream(stream, fn)
}

// sniff reads the trace format of r from its first bytes. A binary
// stream comes back as a reader positioned after its magic; text and
// JSONL come back parsed whole.
func sniff(r io.Reader, opt trace.DecodeOptions) (*trace.BinaryReader, *trace.Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// Peek returns whatever is available on short inputs along with an
	// error we deliberately ignore: a 3-byte file is still valid text.
	head, _ := br.Peek(5)
	switch {
	case len(head) == 5 && (string(head) == "MTRC\x02" || string(head) == "MTRC\x03" || string(head) == "MTRC\x04"):
		stream, err := trace.NewBinaryReaderOpts(br, opt)
		return stream, nil, err
	case len(head) > 0 && head[0] == '{':
		ds, err := trace.ReadJSON(br)
		return nil, ds, err
	default:
		ds, err := trace.Read(br)
		return nil, ds, err
	}
}

// feedStream delivers every trace of a binary stream to fn.
func feedStream(stream *trace.BinaryReader, fn func(trace.Trace) error) (int, error) {
	n := 0
	for {
		t, err := stream.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := fn(t); err != nil {
			return n, err
		}
		n++
	}
}

// feedDataset delivers a parsed in-memory dataset to fn.
func feedDataset(ds *trace.Dataset, fn func(trace.Trace) error) (int, error) {
	for i, t := range ds.Traces {
		if err := fn(t); err != nil {
			return i, err
		}
	}
	return len(ds.Traces), nil
}

// Finish finalises everything ingested so far into evidence. The
// ingestor remains usable: later Ingest calls accumulate on top, and
// the next Finish covers the union. Errors are only possible in
// out-of-core mode (spill write or merge failure).
func (g *Ingestor) Finish() (*Evidence, error) { return g.coll.Finish() }

// Traces returns how many traces have been ingested across every
// Ingest so far (retained or not; sanitisation outcomes are in the
// evidence stats).
func (g *Ingestor) Traces() int { return g.coll.Traces() }

// DecodeStats exposes the cumulative binary decode-health counters, for
// wiring into Config.DecodeStats. Zero for text/JSONL-only ingests.
// The pointer stays valid (and accumulating) for the ingestor's life.
func (g *Ingestor) DecodeStats() *trace.DecodeStats { return &g.stats }

// SpillStats snapshots the out-of-core counters; zero without a budget.
func (g *Ingestor) SpillStats() SpillStats { return g.coll.SpillStats() }

// Close stops the collector's pipeline, which a failed Ingest leaves
// running, and releases any spill segment files. The ingestor must not
// be used afterwards.
func (g *Ingestor) Close() error { return g.coll.Close() }
