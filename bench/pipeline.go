package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mapit"
)

// pinnedDigest is the result digest of the batch and spill workloads for
// seed 1 at defaultSizes. A change to it means the inference output
// changed, which no performance change may do.
const pinnedDigest = "8ad863fe6e81ab3decd2dab1ad78c4b8769d30caadab288976b7551622d0973e"

// pipeline runs mapit's path over one corpus on disk: decode → collect
// (optionally spilling) → RunEvidence → snapshot.Build → Handle.Swap.
type pipeline struct {
	corpus string
	cfg    mapit.Config
	spill  mapit.SpillConfig
	handle mapit.SnapshotHandle
}

// runPipeline is the batch workload, or with spill the spill workload:
// one warm-up rep, then timed reps until the run's seconds are up.
func runPipeline(e *env, spill bool) error {
	t0 := time.Now()
	w := world(e.sz)
	corpus := filepath.Join(e.work, "traces.bin")
	n, err := writeCorpus(corpus, w, traceConfig(e.seed+1, e.sz.batchDests))
	if err != nil {
		return err
	}
	if err := writeMeta(e.work, w, e.seed); err != nil {
		return err
	}
	e.fixture["traces"], e.fixture["corpus_bytes"] = n, fileSize(corpus)
	fmt.Fprintf(os.Stderr, "bench: %s fixtures: %d traces, %d bytes in %.1fs\n",
		e.workload, n, e.fixture["corpus_bytes"], time.Since(t0).Seconds())

	cfg, setupS, err := timedSetup(e.work)
	if err != nil {
		return err
	}
	p := &pipeline{corpus: corpus, cfg: cfg}
	other := &pipeline{corpus: corpus, cfg: cfg}
	spillCfg := mapit.SpillConfig{Dir: e.work, MemBudget: e.sz.spillBudget}
	if spill {
		p.spill = spillCfg
		e.fixture["spill_budget"] = e.sz.spillBudget
	} else {
		other.spill = spillCfg
	}

	res, _, err := p.rep(nil, 0, 0)
	if err != nil {
		return err
	}
	want := digest(res)
	if e.seed == 1 && e.sz == defaultSizes {
		e.ops.check(want == pinnedDigest, "seed 1 digest %s, pinned %s", want, pinnedDigest)
	}

	var repMs []float64
	var cost costs
	heap := startHeapSampler()
	start := time.Now()
	for i := int64(1); ; i++ {
		// Every rep starts from a collected heap, as a fresh mapit
		// process does, so the GC pacing of one rep does not depend on
		// the garbage the previous rep left behind.
		runtime.GC()
		traced := e.traced && i%2 == 0
		u := e.tr.startUnit(i, traced)
		t := time.Now()
		res, sp, err := p.rep(e.tr, u.id(), i)
		ms := msSince(t)
		e.tr.finishUnit(u, ms, nil)
		if err == nil && !e.traced {
			repMs = append(repMs, ms)
			err = cost.add(ms)
		}
		if err != nil {
			heap.peakMB() // stops the sampler
			return err
		}
		e.ops.check(digest(res) == want, "rep %d digest differs from the warm-up rep", i)
		if spill {
			e.ops.check(sp.SpilledBytes > 0, "spill rep %d spilled nothing under a %d-byte budget", i, e.sz.spillBudget)
		}
		if time.Since(start) >= e.dur && i >= int64(e.sz.minReps) {
			break
		}
	}
	peak := heap.peakMB()

	// Untimed: the other collector path must reach the same result.
	res, _, err = other.rep(nil, 0, 0)
	if err != nil {
		return err
	}
	e.ops.check(digest(res) == want, "spill and in-memory collectors disagree")
	if e.traced {
		return nil
	}

	note := fmt.Sprintf("median of %d reps", len(repMs))
	med := median(repMs)
	e.e2e.set("setup_s", setupS, "s", fmt.Sprintf("median of %d loads", setupReps))
	cost.report(e, "pipeline rep", false)
	e.e2e.set("peak_mem_mb", peak, "MB", "peak HeapInuse over the timed reps")
	e.info.set("op_p50_ms", med, "ms", "corpus open → snapshot swapped, "+note)
	e.info.set("op_tail_ms", slices.Max(repMs), "ms", fmt.Sprintf("slowest of %d reps", len(repMs)))
	e.info.set("throughput_per_s", float64(n)/(med/1000), "1/s", "traces per second, "+note)
	return nil
}

// rep runs the pipeline once and swaps the snapshot in. Traced, it
// splits the Ingestor into its decode loop and collector so each layer
// gets its own span; untraced, it calls the Ingestor as mapit does.
func (p *pipeline) rep(tr *tracer, parent, req int64) (*mapit.Result, mapit.SpillStats, error) {
	var sp mapit.SpillStats
	f, err := os.Open(p.corpus)
	if err != nil {
		return nil, sp, err
	}
	defer f.Close()
	opt := mapit.IngestOptions{Workers: p.cfg.Workers, Spill: p.spill}
	var ev *mapit.Evidence
	var dstats *mapit.DecodeStats
	if tk := tr.begin(spanDecode, parent, req); tk.live() {
		coll := mapit.NewParallelCollectorSpill(opt.Workers, opt.Spill)
		defer coll.Close()
		dstats = new(mapit.DecodeStats)
		ev, err = tracedIngest(tr, tk, f, coll, dstats)
		sp = coll.SpillStats()
	} else {
		ing := mapit.NewIngestor(opt)
		defer ing.Close()
		if _, err = ing.Ingest(f); err == nil {
			ev, err = ing.Finish()
		}
		dstats, sp = ing.DecodeStats(), ing.SpillStats()
	}
	if err != nil {
		return nil, sp, err
	}
	cfg := p.cfg
	cfg.DecodeStats = dstats
	cfg.SpillStats = &sp
	res, err := traceRun(tr, parent, req, ev, cfg)
	if err != nil {
		return nil, sp, err
	}
	p.handle.Swap(traceBuild(tr, parent, req, res, ev))
	return res, sp, nil
}

// tracedIngest is Ingestor.Ingest followed by Finish, with the time each
// Add call blocked summed onto the decode span and Finish in its own
// span.
func tracedIngest(tr *tracer, tk ticket, r io.Reader, coll *mapit.ParallelCollector, ds *mapit.DecodeStats) (*mapit.Evidence, error) {
	a0 := totalAlloc()
	var addNs int64
	_, err := mapit.DecodeTraces(r, mapit.DecodeOptions{Permissive: true, Stats: ds}, func(t mapit.Trace) error {
		s := time.Now()
		coll.Add(t)
		addNs += int64(time.Since(s))
		return nil
	})
	tr.end(tk, map[string]float64{
		"add_ns":       float64(addNs),
		attrBytes:      float64(ds.BytesConsumed),
		"trace.blocks": float64(ds.BlocksDecoded),
	})
	if err != nil {
		return nil, err
	}
	fk := tr.begin(spanFinish, tk.parent, tk.req)
	ev, err := coll.Finish()
	if err != nil {
		return nil, err
	}
	alloc, _ := allocMB(a0)
	sp := coll.SpillStats()
	tr.end(fk, map[string]float64{
		"collect.alloc_mb":        alloc,
		"collect.adjacencies":     float64(len(ev.Adjacencies)),
		"collect.traces_retained": float64(ev.Stats.TotalTraces - ev.Stats.DiscardedTraces),
		"spill.files":             float64(sp.Files),
		"spill.bytes":             float64(sp.SpilledBytes),
		"spill.entries":           float64(sp.SpilledEntries),
	})
	return ev, nil
}

// traceRun is mapit.InferEvidence in a run.run span.
func traceRun(tr *tracer, parent, req int64, ev *mapit.Evidence, cfg mapit.Config) (*mapit.Result, error) {
	tk := tr.begin(spanRun, parent, req)
	var a0 uint64
	if tk.live() {
		a0 = totalAlloc()
	}
	res, err := mapit.InferEvidence(ev, cfg)
	if err != nil || !tk.live() {
		return res, err
	}
	attrs := runAttrs(res)
	attrs["run.alloc_mb"], _ = allocMB(a0)
	tr.end(tk, attrs)
	return res, nil
}

// runAttrs are the inference counts a span reports.
func runAttrs(res *mapit.Result) map[string]float64 {
	d := res.Diag
	m := map[string]float64{
		"run.iterations": float64(d.Iterations),
		"run.add_passes": float64(d.AddPasses),
		"run.interfaces": float64(d.Interfaces),
	}
	if p := res.Partition; p != nil {
		m["run.components"] = float64(p.Components)
		m["run.giant_share"] = p.GiantShare
		m["run.replays"] = float64(p.Replays)
	}
	return m
}

// traceBuild is mapit.BuildSnapshot in a snapshot.build span.
func traceBuild(tr *tracer, parent, req int64, res *mapit.Result, ev *mapit.Evidence) *mapit.Snapshot {
	tk := tr.begin(spanBuild, parent, req)
	var a0 uint64
	if tk.live() {
		a0 = totalAlloc()
	}
	snap := mapit.BuildSnapshot(res, ev)
	if tk.live() {
		alloc, _ := allocMB(a0)
		tr.end(tk, map[string]float64{
			"snapshot.alloc_mb": alloc,
			"snapshot.rows":     float64(snap.Len()),
			"snapshot.links":    float64(snap.LinkCount()),
		})
	}
	return snap
}

// digest is a SHA-256 over the sorted inferences and links of a result:
// equal digests mean equal inference output.
func digest(res *mapit.Result) string {
	h := sha256.New()
	infs := slices.Clone(res.Inferences)
	slices.SortFunc(infs, func(a, b mapit.Inference) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Dir, b.Dir),
			cmp.Compare(a.Local, b.Local), cmp.Compare(a.Connected, b.Connected),
			cmp.Compare(a.OtherSide, b.OtherSide))
	})
	for _, inf := range infs {
		fmt.Fprintf(h, "i %d %d %d %d %d %t %t %t\n", inf.Addr, inf.Dir, inf.Local, inf.Connected,
			inf.OtherSide, inf.Uncertain, inf.Stub, inf.Indirect)
	}
	links := res.Links()
	slices.SortFunc(links, func(a, b mapit.ASLink) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	for _, l := range links {
		addrs := slices.Clone(l.Addrs)
		slices.Sort(addrs)
		fmt.Fprintf(h, "l %d %d %v\n", l.A, l.B, addrs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
