package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mapit"
)

// runWindow is the window workload: a time-sorted v4 corpus replayed
// through a sliding window the way mapitd -window publishes, advancing
// at every step boundary (Advance → Evidence → snapshot.Build → Swap).
// Each step between boundaries (decode and Observe of its traces, then
// the advance and publish) is one unit of work, and its operation.
func runWindow(e *env) error {
	t0 := time.Now()
	w := world(e.sz)
	corpus := filepath.Join(e.work, "traces.bin")
	n, err := writeTimedCorpus(corpus, w, traceConfig(e.seed+1, e.sz.windowDests))
	if err != nil {
		return err
	}
	if err := writeMeta(e.work, w, e.seed); err != nil {
		return err
	}
	e.fixture["traces"], e.fixture["corpus_bytes"] = n, fileSize(corpus)
	e.fixture["window_s"], e.fixture["step_s"] = e.sz.windowSec, e.sz.stepSec
	fmt.Fprintf(os.Stderr, "bench: window fixtures: %d traces, %d bytes in %.1fs\n",
		n, e.fixture["corpus_bytes"], time.Since(t0).Seconds())

	cfg, setupS, err := timedSetup(e.work)
	if err != nil {
		return err
	}
	r := &replay{e: e, cfg: cfg}
	heap := startHeapSampler()
	err = r.run(corpus)
	peak := heap.peakMB()
	if err != nil {
		return err
	}

	st := r.win.Stats()
	e.ops.check(r.steady >= e.sz.minSteady, "only %d steady-state advances, want at least %d", r.steady, e.sz.minSteady)
	e.ops.check(st.LinkBirths > 0, "the window saw no link births")
	if err := r.checkFinal(corpus); err != nil {
		return err
	}

	if e.traced {
		return nil
	}
	note := fmt.Sprintf("%d steady-state advances", len(r.advanceMs))
	e.e2e.set("setup_s", setupS, "s", fmt.Sprintf("median of %d loads", setupReps))
	r.cost.report(e, fmt.Sprintf("median step of %d", calibrateEvery), false)
	e.e2e.set("peak_mem_mb", peak, "MB", "peak HeapInuse over the replay")
	e.info.set("step_p50_ms", median(r.stepMs), "ms", fmt.Sprintf("decode, Observe, advance and publish of one %d s step, %d steady steps", e.sz.stepSec, len(r.stepMs)))
	e.info.set("advance_p50_ms", median(r.advanceMs), "ms", "Advance → swap, "+note)
	e.info.set("advance_p95_ms", percentile(r.advanceMs, 95), "ms", "Advance → swap, "+note)
	e.info.set("throughput_per_s", float64(n)/(r.busyMs/1000), "1/s", "traces per second over every step of the replay")
	return nil
}

// calibrateEvery is how many steady-state steps of the window replay
// share one calibration run: a step takes tens of milliseconds, a
// calibration run about a hundred.
const calibrateEvery = 10

// replay drives one corpus through a window.
type replay struct {
	e      *env
	cfg    mapit.Config
	win    *mapit.Window
	handle mapit.SnapshotHandle
	last   *mapit.Result

	first, now int64
	// steady counts the advances made once the window had filled;
	// stepMs and advanceMs are their step and advance latencies in an
	// untraced run, group the steps awaiting their calibration run.
	steady            int
	busyMs            float64
	stepMs, advanceMs []float64
	group             []float64
	cost              costs
}

func (r *replay) run(corpus string) error {
	win, err := mapit.NewWindow(mapit.WindowOptions{
		Length:        mapit.WindowLength(r.e.sz.windowSec),
		Config:        r.cfg,
		TrackMonitors: true,
	})
	if err != nil {
		return err
	}
	r.win = win
	f, err := os.Open(corpus)
	if err != nil {
		return err
	}
	defer f.Close()

	tr := r.e.tr
	var ds mapit.DecodeStats
	var u *replayStep
	var next, last int64
	started := false
	open := func() {
		u = &replayStep{req: int64(r.win.Stats().Advances + 1), start: time.Now()}
		u.traced = r.e.traced && u.req%2 == 0
		u.unit = tr.startUnit(u.req, u.traced)
		u.decode = tr.begin(spanDecode, u.unit.id(), u.req)
		u.bytes, u.blocks = ds.BytesConsumed, ds.BlocksDecoded
	}
	open()
	_, err = mapit.DecodeTraces(f, mapit.DecodeOptions{Permissive: true, Stats: &ds}, func(t mapit.Trace) error {
		if !started {
			r.first, next, started = t.Time, t.Time+r.e.sz.stepSec, true
		} else if t.Time < last {
			return fmt.Errorf("corpus is not sorted by time (%d after %d)", t.Time, last)
		}
		last = t.Time
		for t.Time >= next {
			if err := r.advance(u, next, &ds); err != nil {
				return err
			}
			next += r.e.sz.stepSec
			open()
		}
		if u.decode.live() {
			s := time.Now()
			r.win.Observe(t)
			u.observeNs += int64(time.Since(s))
		} else {
			r.win.Observe(t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !started {
		return fmt.Errorf("empty window corpus")
	}
	return r.advance(u, next, &ds)
}

// replayStep is one unit of the replay: the traces up to a step
// boundary and the advance at it.
type replayStep struct {
	req           int64
	start         time.Time
	traced        bool
	unit          *unitSpan
	decode        ticket
	observeNs     int64
	bytes, blocks int64
}

// advance moves the window to now and publishes, closing the step.
func (r *replay) advance(u *replayStep, now int64, ds *mapit.DecodeStats) error {
	tr := r.e.tr
	before := r.win.Stats()
	t := time.Now()
	ak := tr.begin(spanAdvance, u.decode.id, u.req)
	res, err := r.win.Advance(now)
	if err != nil {
		return err
	}
	after := r.win.Stats()
	recomputed := 0.0
	if after.Recomputes > before.Recomputes {
		recomputed = 1
	}
	var attrs map[string]float64
	if ak.live() {
		attrs = runAttrs(res)
		attrs["window.expired_per_advance"] = float64(after.TracesExpired - before.TracesExpired)
		attrs["window.residents"] = float64(after.TracesActive)
		attrs["window.recompute_ratio"] = recomputed
		attrs["window.link_births"] = float64(after.LinkBirths - before.LinkBirths)
		attrs["window.link_deaths"] = float64(after.LinkDeaths - before.LinkDeaths)
	}
	tr.end(ak, attrs)
	ek := tr.begin(spanEvidence, u.decode.id, u.req)
	ev := r.win.Evidence()
	tr.end(ek, nil)
	r.handle.Swap(traceBuild(tr, u.decode.id, u.req, res, ev))
	ms := msSince(t)
	r.e.ops.count(1)
	r.last, r.now = res, now

	tr.end(u.decode, map[string]float64{
		"observe_ns":   float64(u.observeNs),
		attrBytes:      float64(ds.BytesConsumed - u.bytes),
		"trace.blocks": float64(ds.BlocksDecoded - u.blocks),
	})
	stepMs := msSince(u.start)
	r.busyMs += stepMs
	tr.finishUnit(u.unit, stepMs, nil)
	if now-r.first < r.e.sz.windowSec {
		return nil
	}
	r.steady++
	if r.e.traced {
		return nil
	}
	r.stepMs = append(r.stepMs, stepMs)
	r.advanceMs = append(r.advanceMs, ms)
	if r.group = append(r.group, stepMs); len(r.group) == calibrateEvery {
		err := r.cost.add(median(r.group))
		r.group = r.group[:0]
		return err
	}
	return nil
}

// checkFinal re-runs the final window position as a fresh batch: the
// traces inside the window fed to a new collector must give the same
// inferences as the last advance. Untimed.
func (r *replay) checkFinal(corpus string) error {
	f, err := os.Open(corpus)
	if err != nil {
		return err
	}
	defer f.Close()
	coll := mapit.NewParallelCollector(r.cfg.Workers)
	defer coll.Close()
	cutoff := r.now - r.e.sz.windowSec
	if _, err := mapit.DecodeTraces(f, mapit.DecodeOptions{Permissive: true}, func(t mapit.Trace) error {
		if t.Time > cutoff {
			coll.Add(t)
		}
		return nil
	}); err != nil {
		return err
	}
	ev, err := coll.Finish()
	if err != nil {
		return err
	}
	res, err := mapit.InferEvidence(ev, r.cfg)
	if err != nil {
		return err
	}
	r.e.ops.check(digest(res) == digest(r.last),
		"final window (%d traces) differs from a batch run over the same traces", coll.Traces())
	return nil
}
