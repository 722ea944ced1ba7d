package core

import (
	"runtime"
	"testing"

	"mapit/internal/topo"
)

// benchSizes runs fn as one sub-benchmark per synthetic topology size,
// handing it the size's config and collected evidence.
func benchSizes(b *testing.B, fn func(b *testing.B, cfg *Config, ev *Evidence)) {
	sizes := []struct {
		name  string
		gen   topo.GenConfig
		dests int
	}{
		{"small", topo.SmallGenConfig(), 400},
		{"medium", topo.DefaultGenConfig(), 0},
	}
	for _, size := range sizes {
		b.Run(size.name, func(b *testing.B) {
			w := topo.Generate(size.gen)
			tc := topo.DefaultTraceConfig()
			if size.dests > 0 {
				tc.DestsPerMonitor = size.dests
			}
			ds := w.GenTraces(tc)
			orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
			cfg := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir,
				F: 0.5, Workers: runtime.GOMAXPROCS(0)}
			cfg.freeze()
			fn(b, &cfg, EvidenceFrom(ds.Sanitize()))
		})
	}
}

// BenchmarkFixpoint times the §4.4–§4.6 fixpoint loop alone (evidence
// collection and state build excluded via StopTimer) on small and
// medium synthetic topologies: every add pass re-elects every eligible
// half, every remove pass every direct inference.
//
// CI runs it with -benchtime=1x as a smoke test and snapshots the
// numbers to BENCH_fixpoint.json (see internal/tools/benchjson).
func BenchmarkFixpoint(b *testing.B) {
	benchSizes(b, func(b *testing.B, cfg *Config, ev *Evidence) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := newRunState(cfg, ev)
			b.StartTimer()
			st.fixpoint()
		}
	})
}

// BenchmarkStateBuild times newRunState alone over the same inputs:
// interface ids, the neighbour-set rows, per-id IP→AS, IXP and
// other-side resolution, and the intern index. Workers follows
// GOMAXPROCS, so -cpu 1,2 compares the serial and sharded build.
func BenchmarkStateBuild(b *testing.B) {
	benchSizes(b, func(b *testing.B, cfg *Config, ev *Evidence) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newRunState(cfg, ev)
		}
	})
}

// resultSink keeps BenchmarkResult's output live.
var resultSink *Result

// BenchmarkResult times the result build alone — the inference list
// and its sort, from a converged state — over the same inputs; the
// state build and the fixpoint run once, outside the timer.
func BenchmarkResult(b *testing.B) {
	benchSizes(b, func(b *testing.B, cfg *Config, ev *Evidence) {
		st := newRunState(cfg, ev)
		st.fixpoint()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resultSink = st.result()
		}
	})
}
