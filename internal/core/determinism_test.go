package core

import (
	"reflect"
	"testing"

	"mapit/internal/topo"
	"mapit/internal/trace"
)

// TestParallelPipelineDeterminism runs the full ingest + inference
// pipeline serially and with Workers=8 on the default evaluation world
// and asserts every intermediate and final artefact is identical: the
// Evidence adjacency slice, the per-iteration stateHash, and the
// Result. Run under -race in CI, this is both the determinism proof and
// the data-race canary for the parallel ingest pipeline.
func TestParallelPipelineDeterminism(t *testing.T) {
	gen := topo.DefaultGenConfig()
	tc := topo.DefaultTraceConfig()
	if testing.Short() {
		gen = topo.SmallGenConfig()
		tc.DestsPerMonitor = 400
	}
	w := topo.Generate(gen)
	ds := w.GenTraces(tc)
	orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())

	// Ingest: serial collector vs parallel collector vs batch sanitise.
	serial := NewCollector()
	for _, tr := range ds.Traces {
		serial.Add(tr)
	}
	evS := serial.Evidence()
	par := NewParallelCollector(8)
	for _, tr := range ds.Traces {
		par.Add(tr)
	}
	evP := par.Evidence()
	if !reflect.DeepEqual(evS.Adjacencies, evP.Adjacencies) {
		t.Fatalf("parallel collector adjacency slice diverges (%d vs %d)",
			len(evS.Adjacencies), len(evP.Adjacencies))
	}
	if evS.Stats != evP.Stats {
		t.Fatalf("parallel collector stats diverge: %+v vs %+v", evS.Stats, evP.Stats)
	}
	if !reflect.DeepEqual(evS.AllAddrs, evP.AllAddrs) {
		t.Fatal("parallel collector address set diverges")
	}
	if evSan := EvidenceFrom(ds.Sanitize()); !reflect.DeepEqual(evS.Adjacencies, evSan.Adjacencies) {
		t.Fatal("evidence from batch sanitise diverges from streaming evidence")
	}

	// State build + algorithm: per-iteration state hashes must agree.
	cfgS := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir, F: 0.5, Workers: 1}
	cfgP := cfgS
	cfgP.Workers = 8
	stS := newRunState(&cfgS, evS)
	stP := newRunState(&cfgP, evP)
	if hS, hP := stS.stateHash(), stP.stateHash(); hS != hP {
		t.Fatalf("initial stateHash diverges: %x vs %x", hS, hP)
	}
	for iter := 1; iter <= 3; iter++ {
		stS.resetInferredOnce()
		stP.resetInferredOnce()
		stS.addStep(iter == 1)
		stP.addStep(iter == 1)
		stS.removeStep()
		stP.removeStep()
		if hS, hP := stS.stateHash(), stP.stateHash(); hS != hP {
			t.Fatalf("stateHash diverges after iteration %d: %x vs %x", iter, hS, hP)
		}
	}

	// Full runs end to end.
	rS, err := RunEvidence(evS, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	rP, err := RunEvidence(evP, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rS.Inferences, rP.Inferences) {
		t.Fatalf("inferences diverge (%d vs %d)", len(rS.Inferences), len(rP.Inferences))
	}
	if rS.Diag != rP.Diag {
		t.Fatalf("diagnostics diverge: %+v vs %+v", rS.Diag, rP.Diag)
	}
	if !reflect.DeepEqual(rS.ProbeSuggestions, rP.ProbeSuggestions) {
		t.Fatal("probe suggestions diverge")
	}
}

// BenchmarkStateHash measures the from-scratch §4.6 fingerprint
// rebuild on a converged run state (the maintained stateHash itself is
// a field read; the recompute is what verification pays).
func BenchmarkStateHash(b *testing.B) {
	w := topo.Generate(topo.SmallGenConfig())
	tc := topo.DefaultTraceConfig()
	tc.DestsPerMonitor = 400
	ds := w.GenTraces(tc)
	orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
	cfg := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir, F: 0.5}
	var _ = trace.Stats{} // keep the trace import alongside topo
	st := newRunState(&cfg, EvidenceFrom(ds.Sanitize()))
	st.resetInferredOnce()
	st.addStep(true)
	st.removeStep()
	if st.stateHash() != st.stateHashRecompute() {
		b.Fatal("maintained fingerprint diverges from recompute")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.stateHashRecompute() == 0 {
			b.Fatal("degenerate hash")
		}
	}
}
