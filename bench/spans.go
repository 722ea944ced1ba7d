package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent links a call to the call it was made from;
// Req identifies the unit of work (pipeline rep, window step, load
// sub-step) or the HTTP request the call served. Attrs carry counts
// taken at the same boundary, keyed by the per-layer metric they feed,
// plus the sink times named in sinkAttrs.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Span names. A unit span wraps one unit of work and is recorded whether
// or not tracing is on for that unit, so the traced and untraced units
// of one run can be compared; every other span is a layer call.
const (
	spanUnit        = "unit"
	spanDecode      = "trace.decode"
	spanFinish      = "collect.finish"
	spanRun         = "run.run"
	spanAdvance     = "window.advance"
	spanEvidence    = "window.evidence"
	spanBuild       = "snapshot.build"
	spanRequest     = "loadgen.request"
	spanRoundTrip   = "socket.roundtrip"
	spanHandler     = "serve.handler"
	spanIngestRoute = "serve.ingest"
)

// sinkAttrs are times a span spent inside many small calls to another
// layer (Ingestor-style Add, Window.Observe), summed instead of recorded
// as one child span per call. They count against the span's self time
// and toward the named per-layer metric.
var sinkAttrs = map[string]string{
	"add_ns":     "collect.add_wait_pct",
	"observe_ns": "window.observe_pct",
}

// busyMetrics maps a layer span to the per-layer metric holding its self
// time as a share of the traced units' wall time.
var busyMetrics = map[string]string{
	spanDecode:      "trace.busy_pct",
	spanFinish:      "collect.finish_pct",
	spanRun:         "run.busy_pct",
	spanAdvance:     "window.advance_pct",
	spanEvidence:    "window.evidence_pct",
	spanBuild:       "snapshot.build_pct",
	spanRequest:     "loadgen.wait_pct",
	spanRoundTrip:   "socket.overhead_pct",
	spanHandler:     "serve.handler_pct",
	spanIngestRoute: "serve.ingest_pct",
}

// Unit-span attributes.
const (
	attrTraced = "traced" // 1 when the unit's layer calls were traced
	attrOpMs   = "op_ms"  // the unit's operation latency (median of its ops)
	attrBytes  = "bytes"  // corpus bytes a decode span consumed
	attrLate   = "late"   // 1 on a request sent > 0.5 ms after it was ready
	attrNon2xx = "non2xx" // 1 on a round trip answered with a non-2xx status
)

// tracer keeps spans in memory for the whole run; write saves them when
// the run ends. It is safe for concurrent use: load workers and the
// in-process server's handlers record from their own goroutines.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ticket is an open span. The zero ticket, handed out while tracing is
// off, records nothing.
type ticket struct {
	id, parent, req int64
	name            string
	start           time.Time
}

func (tk ticket) live() bool { return tk.id != 0 }

// begin opens a layer span when tracing is on.
func (t *tracer) begin(name string, parent, req int64) ticket {
	if t == nil || !t.on.Load() {
		return ticket{}
	}
	return t.open(name, parent, req, time.Now())
}

// open opens a span unconditionally, starting at start.
func (t *tracer) open(name string, parent, req int64, start time.Time) ticket {
	return ticket{id: t.next.Add(1), parent: parent, req: req, name: name, start: start}
}

// end closes a span now.
func (t *tracer) end(tk ticket, attrs map[string]float64) { t.endAt(tk, time.Now(), attrs) }

// endAt closes a span at a given time.
func (t *tracer) endAt(tk ticket, end time.Time, attrs map[string]float64) {
	if !tk.live() {
		return
	}
	s := span{ID: tk.id, Parent: tk.parent, Req: tk.req, Name: tk.name,
		Start: int64(tk.start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// unitSpan is an open unit of work; nil when the run is untraced.
type unitSpan struct {
	tk     ticket
	traced bool
	before runtime.MemStats
}

// id is the unit span's id, the parent of the unit's layer spans.
func (u *unitSpan) id() int64 {
	if u == nil {
		return 0
	}
	return u.tk.id
}

// startUnit opens a unit of work and turns tracing on for its layer
// calls if traced. The unit span itself is recorded either way, so the
// traced and untraced units of a run can be compared.
func (t *tracer) startUnit(req int64, traced bool) *unitSpan {
	if t == nil {
		return nil
	}
	u := &unitSpan{traced: traced}
	runtime.ReadMemStats(&u.before)
	t.on.Store(traced)
	u.tk = t.open(spanUnit, 0, req, time.Now())
	return u
}

// finishUnit closes a unit with its operation latency and the GC
// activity it saw, and turns tracing off.
func (t *tracer) finishUnit(u *unitSpan, opMs float64, attrs map[string]float64) {
	if u == nil {
		return
	}
	end := time.Now()
	t.on.Store(false)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if attrs == nil {
		attrs = make(map[string]float64)
	}
	attrs[attrOpMs] = opMs
	if u.traced {
		attrs[attrTraced] = 1
		attrs["runtime.gc_cycles"] = float64(after.NumGC - u.before.NumGC)
		attrs["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-u.before.PauseTotalNs) / 1e6
	}
	t.endAt(u.tk, end, attrs)
}

// allocMB returns the MiB allocated since a previous TotalAlloc reading,
// and the current reading.
func allocMB(since uint64) (float64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-since) / (1 << 20), ms.TotalAlloc
}

// totalAlloc reads the cumulative allocation counter.
func totalAlloc() uint64 {
	_, now := allocMB(0)
	return now
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a span file written by tracer.write.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("span %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// derive computes every per-layer metric from a run's spans alone, so a
// saved span file reproduces the numbers the run printed:
//
//   - a layer's self time is its span duration minus its child spans
//     and sink times; its *_pct metric is the summed self time as a
//     share of the traced units' wall time;
//   - a count is the mean of the attribute of that name over the spans
//     carrying it;
//   - tracing.overhead_pct compares the median operation latency of the
//     traced units with that of the untraced ones.
//
// Metrics of layers a workload never enters read 0.
func derive(spans []span) *metricSet {
	childNs := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	var wallNs float64
	var tracedOps, plainOps []float64
	busy := make(map[string]float64)
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	var decodeBytes float64
	var requests, late, handlers, builds, non2xx float64
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		if s.Name == spanUnit {
			if s.Attrs[attrTraced] == 1 {
				wallNs += dur
				tracedOps = append(tracedOps, s.Attrs[attrOpMs])
			} else {
				plainOps = append(plainOps, s.Attrs[attrOpMs])
				continue
			}
		}
		self := dur - float64(childNs[s.ID])
		for k, v := range s.Attrs {
			switch k {
			case attrTraced, attrOpMs, attrLate, attrNon2xx:
			case attrBytes:
				decodeBytes += v
			default:
				if m, ok := sinkAttrs[k]; ok {
					busy[m] += v
					self -= v
					continue
				}
				sums[k] += v
				counts[k]++
			}
		}
		if m, ok := busyMetrics[s.Name]; ok {
			busy[m] += self
		}
		switch s.Name {
		case spanRequest:
			requests++
			late += s.Attrs[attrLate]
		case spanRoundTrip:
			non2xx += s.Attrs[attrNon2xx]
		case spanHandler:
			handlers++
		case spanBuild:
			builds++
		}
	}

	out := newMetricSet()
	for _, m := range perLayer {
		out.set(m.name, 0, m.unit, "")
	}
	share := func(ns float64) float64 {
		if wallNs == 0 {
			return 0
		}
		return 100 * ns / wallNs
	}
	for m, ns := range busy {
		out.set(m, share(ns), "%", "self time / traced wall time")
	}
	for k, sum := range sums {
		if _, declared := out.vals[k]; declared {
			out.set(k, sum/counts[k], out.vals[k].Unit, fmt.Sprintf("mean over %d spans", int(counts[k])))
		}
	}
	if ns := busy["trace.busy_pct"]; ns > 0 {
		out.set("trace.decode_mb_per_s", decodeBytes/(1<<20)/(ns/1e9), "MB/s", "corpus bytes / decode self time")
	}
	if requests > 0 {
		out.set("loadgen.late_pct", 100*late/requests, "%", fmt.Sprintf("of %d requests", int(requests)))
	}
	out.set("serve.requests", handlers, "count", "traced lookups handled")
	out.set("serve.non2xx", non2xx, "count", "")
	out.set("snapshot.versions", builds, "count", "traced snapshot builds")
	if len(tracedOps) > 0 && len(plainOps) > 0 {
		out.set("tracing.overhead_pct", 100*(median(tracedOps)/median(plainOps)-1), "%",
			fmt.Sprintf("%d traced vs %d untraced units", len(tracedOps), len(plainOps)))
	}
	return out
}
