package mapit

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mapit/internal/core"
	"mapit/internal/trace"
)

// Unified ingest: the mapit CLI and the mapitd daemon share one
// sniffing ingest pipeline — any supported trace format, streamed
// through the parallel (optionally spilling) collector, reusable for
// incremental corpus growth.
type (
	// Ingestor reads trace corpora (text, JSONL, binary MTRC v2/v3/v4 —
	// sniffed, no seeking) into one retained collector; Finish may be
	// called repeatedly as more batches arrive.
	Ingestor = core.Ingestor
	// IngestOptions configures an Ingestor (workers, strictness, spill
	// budget, monitor attribution).
	IngestOptions = core.IngestOptions
)

// NewIngestor returns an empty ingest pipeline.
func NewIngestor(opt IngestOptions) *Ingestor { return core.NewIngestor(opt) }

// Sliding-window streaming inference: traces carry timestamps (MTRC v4
// or JSONL "time"), a Window retains only those inside a trailing span,
// and Advance re-runs the inference over the residents — batch-identical
// at every position (see the internal/audit/meta DiffWindow oracle).
type (
	// Window is the sliding-window inference engine.
	Window = core.Window
	// WindowOptions configures a Window (span length, inference config,
	// monitor attribution).
	WindowOptions = core.WindowOptions
	// WindowStats carries the window's lifetime and churn counters.
	WindowStats = core.WindowStats
)

// NewWindow returns an empty sliding window.
func NewWindow(opt WindowOptions) (*Window, error) { return core.NewWindow(opt) }

// DecodeTraces sniffs the trace format of r (text, JSONL, or binary
// MTRC v2/v3/v4) and delivers every decoded trace to fn in stream
// order — the decode loop under the windowed replay paths. The batch
// Ingestor shares its sniffing and decodes v3/v4 blocks in its sanitise
// workers instead.
func DecodeTraces(r io.Reader, opt trace.DecodeOptions, fn func(trace.Trace) error) (int, error) {
	return core.DecodeTraces(r, opt, fn)
}

// WindowReplay streams a timestamped corpus through a sliding window:
// every trace is observed, and whenever a trace's timestamp first
// reaches or passes the next step boundary the window advances there
// and emit is called with the boundary and the result. A final advance
// covers the tail. Traces must arrive in non-decreasing time order
// (MTRC v4 guarantees it; gentopo -timestamps writes sorted corpora) —
// a regression is an error. step is in seconds.
func WindowReplay(r io.Reader, w *Window, opt trace.DecodeOptions, step int64,
	emit func(now int64, res *Result) error) error {

	if step <= 0 {
		return errors.New("window replay: step must be positive")
	}
	var next, last int64
	started := false
	_, err := core.DecodeTraces(r, opt, func(t trace.Trace) error {
		if !started {
			next = t.Time + step
			started = true
		} else if t.Time < last {
			return fmt.Errorf("window replay: corpus is not sorted by time (%d after %d)", t.Time, last)
		}
		last = t.Time
		for t.Time >= next {
			res, err := w.Advance(next)
			if err != nil {
				return err
			}
			if err := emit(next, res); err != nil {
				return err
			}
			next += step
		}
		w.Observe(t)
		return nil
	})
	if err != nil {
		return err
	}
	if !started {
		return nil
	}
	res, err := w.Advance(next)
	if err != nil {
		return err
	}
	return emit(next, res)
}

// WindowLength converts a seconds count to the duration WindowOptions
// expects, for callers that parse window sizes from flags.
func WindowLength(seconds int64) time.Duration { return time.Duration(seconds) * time.Second }
