package core

import (
	"runtime"
	"testing"

	"mapit/internal/topo"
)

// BenchmarkFixpoint times the §4.4–§4.6 fixpoint loop alone (evidence
// collection and state build excluded via StopTimer) on small and
// medium synthetic topologies: every add pass re-elects every eligible
// half, every remove pass every direct inference.
//
// CI runs it with -benchtime=1x as a smoke test and snapshots the
// numbers to BENCH_fixpoint.json (see internal/tools/benchjson).
func BenchmarkFixpoint(b *testing.B) {
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
