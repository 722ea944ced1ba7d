package mapit_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// Benchmark{Table1,Fig6,Fig7,Fig8,DatasetStats} times the experiment
// behind the corresponding exhibit and reports the headline quality
// numbers as custom metrics; the BenchmarkAblation* family quantifies
// the design choices DESIGN.md calls out; the remaining benchmarks are
// micro-benchmarks of the hot paths.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mapit"
	"mapit/internal/baseline"
	"mapit/internal/core"
	"mapit/internal/eval"
	"mapit/internal/inet"
	"mapit/internal/iptrie"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

var (
	envOnce sync.Once
	benchE  *eval.Env
)

// benchEnv builds the shared default environment once.
func benchEnv(b *testing.B) *eval.Env {
	b.Helper()
	envOnce.Do(func() { benchE = eval.NewEnv(eval.DefaultEnvConfig()) })
	return benchE
}

// reportQuality attaches precision/recall custom metrics for every
// evaluation network.
func reportQuality(b *testing.B, e *eval.Env, infs []mapit.Inference) {
	for _, key := range eval.NetworkKeys {
		m := e.Verifiers[key].Score(infs).Total
		b.ReportMetric(100*m.Precision(), eval.NetworkLabel(key)+"-P%")
		b.ReportMetric(100*m.Recall(), eval.NetworkLabel(key)+"-R%")
	}
}

// BenchmarkTable1 regenerates Table 1 (MAP-IT at f=0.5, scored per
// relationship class on all three networks).
func BenchmarkTable1(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, r, err := eval.Table1(e, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*scores[topo.SpecialREN].Total.Precision(), "I2*-precision%")
			b.ReportMetric(100*scores[topo.SpecialT1A].Total.Precision(), "L3*-precision%")
			b.ReportMetric(100*scores[topo.SpecialT1B].Total.Precision(), "TS*-precision%")
			_ = r
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (the 11-point f sweep).
func BenchmarkFig6(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := eval.Fig6(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			pts := series[topo.SpecialREN]
			b.ReportMetric(100*pts[5].Precision, "I2*-precision%@f=0.5")
			b.ReportMetric(100*pts[10].Recall, "I2*-recall%@f=1.0")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (per-stage snapshots).
func BenchmarkFig7(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stages, err := eval.Fig7(e, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			first := stages[0].ByNetwork[topo.SpecialT1B]
			last := stages[len(stages)-1].ByNetwork[topo.SpecialT1B]
			b.ReportMetric(100*first.Precision(), "TS*-precision%-initial")
			b.ReportMetric(100*last.Precision(), "TS*-precision%-final")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (baseline comparison).
func BenchmarkFig8(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := eval.Fig8(e, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*cmp["MAP-IT"][topo.SpecialREN].Precision(), "MAP-IT-I2*-precision%")
			b.ReportMetric(100*cmp["ITDK-MIDAR"][topo.SpecialREN].Precision(), "ITDK-I2*-precision%")
		}
	}
}

// BenchmarkReprobe times the §5.4 targeted re-probing loop (suggest →
// probe → rerun → rescore).
func BenchmarkReprobe(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := eval.Reprobe(e, 0.5, 6, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rr.Resolved), "boundaries-resolved")
			b.ReportMetric(100*rr.GlobalAfter.Precision(), "global-precision%")
		}
	}
}

// BenchmarkDatasetStats times the §4.1 sanitisation plus statistics over
// the full trace corpus.
func BenchmarkDatasetStats(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := e.Dataset.Sanitize()
		if s.Stats.TotalTraces == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// runAblation executes MAP-IT with a modified configuration and reports
// the REN quality delta.
func runAblation(b *testing.B, mutate func(*mapit.Config)) {
	e := benchEnv(b)
	b.ResetTimer()
	var infs []mapit.Inference
	for i := 0; i < b.N; i++ {
		cfg := e.Config(0.5)
		mutate(&cfg)
		r, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		infs = r.Inferences
	}
	reportQuality(b, e, infs)
}

// BenchmarkAblationBaseline is the unmodified algorithm, for reference.
func BenchmarkAblationBaseline(b *testing.B) {
	runAblation(b, func(*mapit.Config) {})
}

// BenchmarkAblationSinglePass disables the multipass refinement.
func BenchmarkAblationSinglePass(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.SinglePass = true })
}

// BenchmarkAblationNoRemove disables the §4.5 remove step.
func BenchmarkAblationNoRemove(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.DisableRemoveStep = true })
}

// BenchmarkAblationNoInverse disables the §4.4.4 inverse resolution.
func BenchmarkAblationNoInverse(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.DisableInverseResolution = true })
}

// BenchmarkAblationNoDual disables the §4.4.3 dual-inference fix.
func BenchmarkAblationNoDual(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.DisableDualResolution = true })
}

// BenchmarkAblationNoSiblings drops the AS-to-organisation data (§4.9).
func BenchmarkAblationNoSiblings(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.Orgs = nil })
}

// BenchmarkAblationNoStub disables the §4.8 stub heuristic.
func BenchmarkAblationNoStub(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.DisableStubHeuristic = true })
}

// BenchmarkAblationWholeInterface applies IP2AS updates to whole
// interfaces instead of halves (§3.2/§4.4.1 argue per-half is required).
func BenchmarkAblationWholeInterface(b *testing.B) {
	runAblation(b, func(c *mapit.Config) { c.WholeInterfaceUpdates = true })
}

// BenchmarkInfer times one full MAP-IT run on the default corpus
// (sanitisation excluded; that is BenchmarkDatasetStats).
func BenchmarkInfer(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(e.Config(0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferSmall times MAP-IT on the small world.
func BenchmarkInferSmall(b *testing.B) {
	w := mapit.GenerateWorld(mapit.SmallWorldConfig())
	tc := mapit.DefaultTraceConfig()
	tc.DestsPerMonitor = 400
	s := w.GenTraces(tc).Sanitize()
	cfg := mapit.Config{IP2AS: w.Table(), Orgs: w.Orgs, Rels: w.Rels, IXP: w.Directory, F: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateWorld times synthetic Internet generation.
func BenchmarkGenerateWorld(b *testing.B) {
	cfg := mapit.DefaultWorldConfig()
	for i := 0; i < b.N; i++ {
		w := mapit.GenerateWorld(cfg)
		if len(w.ASes) == 0 {
			b.Fatal("empty world")
		}
	}
}

// BenchmarkGenTraces times the traceroute engine.
func BenchmarkGenTraces(b *testing.B) {
	w := mapit.GenerateWorld(mapit.DefaultWorldConfig())
	tc := mapit.DefaultTraceConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := w.GenTraces(tc)
		b.SetBytes(int64(len(ds.Traces)))
	}
}

// BenchmarkBaselineSimple times the Simple heuristic over the corpus.
func BenchmarkBaselineSimple(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if infs := baseline.Simple(e.Sanitized, e.Table); len(infs) == 0 {
			b.Fatal("no claims")
		}
	}
}

// BenchmarkBaselineITDK times the router-graph pipeline.
func BenchmarkBaselineITDK(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if infs := baseline.ITDK(e.World, e.Sanitized, e.Table, baseline.ITDKMidar, 11); len(infs) == 0 {
			b.Fatal("no claims")
		}
	}
}

// BenchmarkLPMLookup measures the longest-prefix-match trie.
func BenchmarkLPMLookup(b *testing.B) {
	e := benchEnv(b)
	addrs := make([]inet.Addr, 0, 4096)
	for a := range e.Sanitized.AllAddrs {
		addrs = append(addrs, a)
		if len(addrs) == cap(addrs) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Table.Lookup(addrs[i%len(addrs)]); !ok {
			// Some addresses are deliberately unannounced.
			continue
		}
	}
}

// lookupOnlyTable hides the origin table's Freeze method behind a
// Lookup-only wrapper, so the run's auto-freeze type assertion misses
// and every resolution walks the pointer trie. It is the reference
// point for the compiled-LPM ingest speedup.
type lookupOnlyTable struct{ t *mapit.OriginTable }

func (l lookupOnlyTable) Lookup(a inet.Addr) (inet.ASN, bool) { return l.t.Lookup(a) }

// BenchmarkIngestCompiled times a full run (state build + fixpoint)
// resolving against the frozen multibit table — the default path.
func BenchmarkIngestCompiled(b *testing.B) {
	e := benchEnv(b)
	cfg := e.Config(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestTrie is the same run with the compiled engine held
// out: the table is wrapped so it cannot freeze and every lookup
// descends the binary trie. Compare against BenchmarkIngestCompiled.
func BenchmarkIngestTrie(b *testing.B) {
	e := benchEnv(b)
	cfg := e.Config(0.5)
	cfg.IP2AS = lookupOnlyTable{t: e.World.Table()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrieInsert measures trie construction.
func BenchmarkTrieInsert(b *testing.B) {
	prefixes := make([]inet.Prefix, 1024)
	for i := range prefixes {
		prefixes[i] = inet.PrefixFrom(inet.Addr(uint32(i)*2654435761), 8+i%25)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := iptrie.New[int]()
		for j, p := range prefixes {
			tr.Insert(p, j)
		}
	}
}

// BenchmarkSanitizeTrace measures per-trace sanitisation (§4.1).
func BenchmarkSanitizeTrace(b *testing.B) {
	e := benchEnv(b)
	traces := e.Dataset.Traces
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := trace.Sanitize(traces[i%len(traces)])
		_ = res
	}
}

// ingestWorkerSweep is the worker-count axis of the parallel-ingest
// benchmarks; on an N-core machine throughput should scale until the
// sweep passes N, with identical outputs at every point.
var ingestWorkerSweep = []int{1, 2, 4, 8}

// BenchmarkCollectorParallel measures the parallel streaming collector
// (sanitise → dedup → sorted evidence) across worker counts, with the
// serial Collector as the reference point.
func BenchmarkCollectorParallel(b *testing.B) {
	e := benchEnv(b)
	traces := e.Dataset.Traces
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(traces)))
		for i := 0; i < b.N; i++ {
			c := mapit.NewCollector()
			for _, t := range traces {
				c.Add(t)
			}
			if ev := c.Evidence(); len(ev.Adjacencies) == 0 {
				b.Fatal("no evidence")
			}
		}
	})
	for _, w := range ingestWorkerSweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(traces)))
			for i := 0; i < b.N; i++ {
				c := mapit.NewParallelCollector(w)
				for _, t := range traces {
					c.Add(t)
				}
				if ev := c.Evidence(); len(ev.Adjacencies) == 0 {
					b.Fatal("no evidence")
				}
			}
		})
	}
}

// BenchmarkIngestSpill is the out-of-core ingest path end to end: a
// 10M-trace MTRC v3 corpus on disk is decoded and streamed into a
// spilling Ingestor under a 64 MiB evidence budget, and the segment
// files are merged back into evidence. The corpus is written once
// before the timer starts, so the timed loop is NewIngestor → Ingest →
// Finish alone. A sampler goroutine tracks peak heap throughout; the
// benchmark fails if it crosses the 512 MiB ceiling — the bound that
// makes corpus size irrelevant to ingest memory. CI runs this with
// -benchtime=1x into BENCH_oocore.json (bytes/op = traces per
// iteration, so MB/s reads as Mtraces/s).
func BenchmarkIngestSpill(b *testing.B) {
	const (
		targetTraces = 10_000_000
		budget       = 64 << 20
		heapCeiling  = 512 << 20
	)
	w := mapit.GenerateWorld(mapit.DefaultWorldConfig())
	tc := mapit.DefaultTraceConfig()
	tc.DestsPerMonitor = (targetTraces + len(w.Monitors) - 1) / len(w.Monitors)
	corpus := filepath.Join(b.TempDir(), "traces.bin")
	n := writeCorpusV3(b, corpus, w, tc)
	if n < targetTraces {
		b.Fatalf("engine produced %d traces, want >= %d", n, targetTraces)
	}

	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak.Load() {
			peak.Store(ms.HeapAlloc)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	var st mapit.SpillStats
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = ingestSpill(b, corpus, mapit.SpillConfig{Dir: b.TempDir(), MemBudget: budget}, sample)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	if st.SpilledEntries == 0 {
		b.Fatalf("nothing spilled under a %d B budget: %+v", int64(budget), st)
	}
	if p := peak.Load(); p > heapCeiling {
		b.Fatalf("peak heap %d B exceeds the %d B ceiling", p, int64(heapCeiling))
	}
	b.ReportMetric(float64(peak.Load()), "peak-heap-B")
	b.ReportMetric(float64(st.SpilledBytes), "spilled-B")
	b.ReportMetric(float64(st.Files), "spill-files")
}

// writeCorpusV3 streams w's traces under tc into an MTRC v3 file at
// path and returns how many it wrote.
func writeCorpusV3(b *testing.B, path string, w *mapit.World, tc mapit.TraceConfig) int64 {
	b.Helper()
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	bw, err := trace.NewBlockWriter(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	w.StreamTraces(tc, func(t mapit.Trace) bool {
		err = bw.Add(t)
		return err == nil
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	return bw.Traces()
}

// ingestSpill is one timed iteration of BenchmarkIngestSpill: ingest the
// corpus file through a spilling Ingestor and finalise it, sampling the
// heap once the merge's working set is at its largest.
func ingestSpill(b *testing.B, corpus string, cfg mapit.SpillConfig, sample func()) mapit.SpillStats {
	f, err := os.Open(corpus)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	g := mapit.NewIngestor(mapit.IngestOptions{Spill: cfg})
	defer g.Close()
	if _, err := g.Ingest(f); err != nil {
		b.Fatal(err)
	}
	ev, err := g.Finish()
	if err != nil {
		b.Fatal(err)
	}
	if len(ev.Adjacencies) == 0 {
		b.Fatal("no evidence collected")
	}
	sample() // catch the merge's working set before it is released
	st := g.SpillStats()
	if err := g.Close(); err != nil {
		b.Fatal(err)
	}
	return st
}

// encodeCorpusV3 encodes w's traces under the default trace config with
// the given seed and destinations per monitor as an in-memory MTRC v3
// corpus.
func encodeCorpusV3(b *testing.B, w *mapit.World, seed int64, dests int) []byte {
	b.Helper()
	tc := mapit.DefaultTraceConfig()
	tc.Seed, tc.DestsPerMonitor = seed, dests
	var buf bytes.Buffer
	bw, err := trace.NewBlockWriter(&buf, 0)
	if err != nil {
		b.Fatal(err)
	}
	w.StreamTraces(tc, func(t mapit.Trace) bool {
		err = bw.Add(t)
		return err == nil
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkIngest is the batch ingest path: Ingestor.Ingest and Finish
// of a 192k-trace in-memory MTRC v3 corpus at Workers 1 and 2. bytes/op
// is the encoded corpus, so MB/s is ingest throughput. cpu-ms/op is the
// process CPU time per op and cpu-util its ratio to wall time, so cores
// left idle by the pipeline show.
func BenchmarkIngest(b *testing.B) {
	corpus := encodeCorpusV3(b, mapit.GenerateWorld(mapit.DefaultWorldConfig()), 2, 6000)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(corpus)))
			cpu0, wall0 := cpuTime(b), time.Now()
			for i := 0; i < b.N; i++ {
				g := mapit.NewIngestor(mapit.IngestOptions{Workers: workers})
				if _, err := g.Ingest(bytes.NewReader(corpus)); err != nil {
					b.Fatal(err)
				}
				ev, err := g.Finish()
				if err != nil {
					b.Fatal(err)
				}
				if len(ev.Adjacencies) == 0 {
					b.Fatal("no evidence collected")
				}
				g.Close()
			}
			cpu, wall := cpuTime(b)-cpu0, time.Since(wall0)
			b.ReportMetric(float64(cpu.Milliseconds())/float64(b.N), "cpu-ms/op")
			b.ReportMetric(cpu.Seconds()/wall.Seconds(), "cpu-util")
		})
	}
}

// BenchmarkIngestorRepublish is mapitd's ingest pattern: one long-lived
// Ingestor with TrackMonitors loads a 192k-trace startup corpus and
// finishes, then folds in six 24k-trace batches (the bench's
// serve-mixed batch size) with a Finish after each. The MTRC v3
// corpora are encoded before the timer starts. Besides the whole
// sequence per op it reports the mean Ingest and Finish time of a
// republish, the part that should scale with the batch rather than
// with the corpus.
func BenchmarkIngestorRepublish(b *testing.B) {
	const (
		startupDests = 6000
		batchDests   = 750
		batches      = 6
	)
	w := mapit.GenerateWorld(mapit.DefaultWorldConfig())
	encode := func(seed int64, dests int) []byte { return encodeCorpusV3(b, w, seed, dests) }
	startup := encode(2, startupDests)
	corpora := make([][]byte, batches)
	for k := range corpora {
		corpora[k] = encode(100+int64(k), batchDests)
	}

	var ingest, finish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mapit.NewIngestor(mapit.IngestOptions{TrackMonitors: true})
		if _, err := g.Ingest(bytes.NewReader(startup)); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Finish(); err != nil {
			b.Fatal(err)
		}
		for _, c := range corpora {
			t0 := time.Now()
			if _, err := g.Ingest(bytes.NewReader(c)); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			ev, err := g.Finish()
			if err != nil {
				b.Fatal(err)
			}
			ingest, finish = ingest+t1.Sub(t0), finish+time.Since(t1)
			if len(ev.Monitors) == 0 {
				b.Fatal("no monitor attribution")
			}
		}
		g.Close()
	}
	n := float64(b.N * batches)
	b.ReportMetric(float64(ingest.Nanoseconds())/n, "ingest-ns/batch")
	b.ReportMetric(float64(finish.Nanoseconds())/n, "finish-ns/batch")
}

// BenchmarkFinish is the finalisation layer: Ingestor.Finish after an
// Ingest of a 192k-trace in-memory MTRC v3 corpus at Workers 2. Finish
// retires the pipeline, whose workers sort and hand over their runs,
// and merges the runs into evidence: in memory, and under the bench
// spill workload's 4 MiB budget, each with and without TrackMonitors.
// The corpus is encoded before the timer starts, and each op's Ingest
// runs with the timer stopped.
func BenchmarkFinish(b *testing.B) {
	corpus := encodeCorpusV3(b, mapit.GenerateWorld(mapit.DefaultWorldConfig()), 2, 6000)
	for _, budget := range []int64{0, 4 << 20} {
		for _, monitors := range []bool{false, true} {
			name := "memory"
			if budget > 0 {
				name = "spill"
			}
			if monitors {
				name += "-monitors"
			}
			b.Run(name, func(b *testing.B) {
				opt := mapit.IngestOptions{Workers: 2, TrackMonitors: monitors}
				if budget > 0 {
					opt.Spill = mapit.SpillConfig{Dir: b.TempDir(), MemBudget: budget}
				}
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					g := mapit.NewIngestor(opt)
					if _, err := g.Ingest(bytes.NewReader(corpus)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					ev, err := g.Finish()
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if len(ev.Adjacencies) == 0 || monitors != (len(ev.Monitors) > 0) {
						b.Fatal("incomplete evidence")
					}
					if budget > 0 && g.SpillStats().AdjRuns == 0 {
						b.Fatalf("nothing spilled under a %d B budget", budget)
					}
					if err := g.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBinaryCodec measures binary trace decode throughput.
func BenchmarkBinaryCodec(b *testing.B) {
	e := benchEnv(b)
	ds := &trace.Dataset{Traces: e.Dataset.Traces[:5000]}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, ds); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil || len(back.Traces) != len(ds.Traces) {
			b.Fatal(err)
		}
	}
}
