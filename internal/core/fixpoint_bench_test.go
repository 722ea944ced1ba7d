package core

import (
	"runtime"
	"testing"

	"mapit/internal/topo"
)

// BenchmarkFixpointFull / BenchmarkFixpointIncremental time the
// §4.4–§4.6 fixpoint loop alone (evidence collection and state build
// excluded via StopTimer) on small and medium synthetic topologies,
// with the dirty-set engine off and on. Both engines produce identical
// results (TestIncrementalEquivalenceTopo); the delta is pure scan
// savings: the full engine re-elects every eligible half on every pass
// of every add step and every direct inference on every pass of every
// remove step, the incremental engine re-elects only halves whose
// election inputs changed after the first pass of each step.
//
// CI runs these with -benchtime=1x as a smoke test and snapshots the
// numbers to BENCH_fixpoint.json (see internal/tools/benchjson).

func BenchmarkFixpointFull(b *testing.B)        { benchFixpoint(b, true) }
func BenchmarkFixpointIncremental(b *testing.B) { benchFixpoint(b, false) }

func benchFixpoint(b *testing.B, disableIncremental bool) {
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
				F: 0.5, Workers: runtime.GOMAXPROCS(0),
				DisableIncremental: disableIncremental}
			ev := EvidenceFrom(ds.Sanitize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := newRunState(&cfg, ev)
				b.StartTimer()
				st.fixpoint()
			}
		})
	}
}
