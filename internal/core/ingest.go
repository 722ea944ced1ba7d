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
// carried. Binary inputs stream record-at-a-time (corpora larger than
// memory work, and the spill budget applies); text and JSONL inputs are
// parsed whole. Unless Strict, corrupt binary v3 blocks are skipped and
// tallied into DecodeStats. On error the evidence already collected
// remains intact — a failed batch never corrupts the pipeline.
func (g *Ingestor) Ingest(r io.Reader) (int, error) {
	return DecodeTraces(r, trace.DecodeOptions{
		Permissive: !g.opt.Strict,
		Stats:      &g.stats,
	}, func(t trace.Trace) error {
		g.coll.Add(t)
		return nil
	})
}

// DecodeTraces sniffs the trace format of r from its first bytes —
// text, JSONL, or binary MTRC v2/v3/v4 — and delivers every decoded
// trace to fn in stream order, returning how many traces fn received.
// Binary inputs stream record-at-a-time; text and JSONL inputs are
// parsed whole. A non-nil error from fn aborts the decode and is
// returned verbatim. This is the one sniffing decode loop: the
// Ingestor's batch path and the sliding-window paths (cmd/mapit replay,
// mapitd windowed ingest) all sit on top of it.
func DecodeTraces(r io.Reader, opt trace.DecodeOptions, fn func(trace.Trace) error) (int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// Peek returns whatever is available on short inputs along with an
	// error we deliberately ignore: a 3-byte file is still valid text.
	head, _ := br.Peek(5)
	switch {
	case len(head) == 5 && (string(head) == "MTRC\x02" || string(head) == "MTRC\x03" || string(head) == "MTRC\x04"):
		stream, err := trace.NewBinaryReaderOpts(br, opt)
		if err != nil {
			return 0, err
		}
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
	case len(head) > 0 && head[0] == '{':
		ds, err := trace.ReadJSON(br)
		if err != nil {
			return 0, err
		}
		return feedDataset(ds, fn)
	default:
		ds, err := trace.Read(br)
		if err != nil {
			return 0, err
		}
		return feedDataset(ds, fn)
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
