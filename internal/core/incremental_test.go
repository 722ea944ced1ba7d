package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"mapit/internal/topo"
)

// Worker-count equivalence for the fixpoint's sharded add and remove
// scans: for any input, a run at the sampled worker count must produce
// byte-identical Results — inferences, probe suggestions, and every
// diagnostic counter (including Add/RemovePasses) — to the serial run.
// These run under -race in CI, so they double as data-race canaries for
// the sharded scans.

// runBoth executes the same evidence serially and at cfg.Workers and
// reports any divergence.
func runBoth(t *testing.T, ev *Evidence, cfg Config, label string) {
	t.Helper()
	serial := cfg
	serial.Workers = 1
	rS, err := RunEvidence(ev, serial)
	if err != nil {
		t.Fatalf("%s: serial: %v", label, err)
	}
	rW, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatalf("%s: sharded: %v", label, err)
	}
	if !reflect.DeepEqual(rS.Inferences, rW.Inferences) {
		t.Fatalf("%s: inferences diverge (%d serial vs %d sharded)",
			label, len(rS.Inferences), len(rW.Inferences))
	}
	if rS.Diag != rW.Diag {
		t.Fatalf("%s: diagnostics diverge:\nserial  %+v\nsharded %+v",
			label, rS.Diag, rW.Diag)
	}
	if !reflect.DeepEqual(rS.ProbeSuggestions, rW.ProbeSuggestions) {
		t.Fatalf("%s: probe suggestions diverge", label)
	}
}

// TestIncrementalEquivalenceTopo sweeps synthetic topology sizes, world
// seeds, f values, and worker counts.
func TestIncrementalEquivalenceTopo(t *testing.T) {
	type tcase struct {
		gen     topo.GenConfig
		dests   int
		f       float64
		workers int
	}
	var cases []tcase
	for seed := int64(1); seed <= 3; seed++ {
		gen := topo.SmallGenConfig()
		gen.Seed = seed
		cases = append(cases,
			tcase{gen, 400, 0.5, 2},
			tcase{gen, 400, 0.25, 4},
			tcase{gen, 400, 0.75, 4},
		)
	}
	if !testing.Short() {
		cases = append(cases, tcase{topo.DefaultGenConfig(), 0, 0.5, 8})
	}
	for i, c := range cases {
		w := topo.Generate(c.gen)
		tc := topo.DefaultTraceConfig()
		if c.dests > 0 {
			tc.DestsPerMonitor = c.dests
		}
		ds := w.GenTraces(tc)
		orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
		ev := EvidenceFrom(ds.Sanitize())
		cfg := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir,
			F: c.f, Workers: c.workers}
		runBoth(t, ev, cfg,
			fmt.Sprintf("case %d (seed=%d f=%.2f workers=%d)", i, c.gen.Seed, c.f, c.workers))
	}
}

// TestQuickIncrementalEquivalence is the quick-check variant: arbitrary
// random evidence, f values, worker counts, and the
// WholeInterfaceUpdates ablation.
func TestQuickIncrementalEquivalence(t *testing.T) {
	f := func(hops []uint16, fRaw uint8, wiu bool, workers uint8) bool {
		s := randEvidence(hops)
		cfg := Config{
			IP2AS:                 quickIP2AS(),
			F:                     float64(fRaw%11) / 10,
			WholeInterfaceUpdates: wiu,
			Workers:               int(workers % 5),
		}
		serial := cfg
		serial.Workers = 1
		rS, err := Run(s, serial)
		if err != nil {
			return false
		}
		rW, err := Run(s, cfg)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(rS, rW)
	}
	if err := quick.Check(f, quickCfg(80)); err != nil {
		t.Fatal(err)
	}
}

// unbackedOverrides returns the committed overrides with no surviving
// inference record to justify them. After a converged run the list must
// be empty: §4.4.2/§4.5 tie every IP2AS update to a live direct
// inference (directly, via an indirect association, or — under the
// WholeInterfaceUpdates ablation — via the opposite half's direct
// inference).
func unbackedOverrides(st *runState) []Half {
	var out []Half
	for hi := range int32(len(st.ovSet)) {
		if !st.ovSet[hi] || st.hasInferenceIdx(hi) {
			continue
		}
		if st.cfg.WholeInterfaceUpdates && st.dirConnID[hi^1] >= 0 {
			continue
		}
		out = append(out, st.halfAt(hi))
	}
	return out
}

// TestWholeInterfaceNoPhantomOverride reproduces the Fig 4 dual-
// inference discard under the WholeInterfaceUpdates ablation and
// asserts the discarded backward inference's mirrored override is
// cleared along with it (regression: recomputeOverride/discardDirect
// used to leave the opposite half's override in place forever).
func TestWholeInterfaceNoPhantomOverride(t *testing.T) {
	ip2as := table(
		"62.115.0.0/16=1299",
		"4.68.0.0/16=3356",
		"91.200.0.0/16=51159",
	)
	x := "4.68.110.186"
	s := sanitized(
		tr("62.115.0.1", x, "91.200.0.1"),
		tr("62.115.0.5", x, "91.200.0.5"),
	)
	cfg := Config{IP2AS: ip2as, F: 0.5, WholeInterfaceUpdates: true}
	st := newRunState(&cfg, EvidenceFrom(s))
	st.fixpoint()
	if st.diag.DualResolved < 1 {
		t.Fatalf("fixture no longer triggers dual resolution (DualResolved=%d)",
			st.diag.DualResolved)
	}
	if phantoms := unbackedOverrides(st); len(phantoms) != 0 {
		t.Errorf("phantom overrides survive the discard: %v", phantoms)
	}
}

// TestQuickNoPhantomOverrides asserts the override-backing invariant on
// arbitrary random evidence, with and without the ablation.
func TestQuickNoPhantomOverrides(t *testing.T) {
	f := func(hops []uint16, fRaw uint8, wiu bool) bool {
		s := randEvidence(hops)
		cfg := Config{IP2AS: quickIP2AS(), F: float64(fRaw%11) / 10,
			WholeInterfaceUpdates: wiu}
		st := newRunState(&cfg, EvidenceFrom(s))
		st.fixpoint()
		return len(unbackedOverrides(st)) == 0
	}
	if err := quick.Check(f, quickCfg(60)); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMapIDConsistency: after a converged run, the
// committed-mapping view the elections read (mapID) must hold, on every
// half, the connected AS of the inference backing its override, or the
// base mapping where no override is in force — setOverride and
// clearOverride write the marker and the view together.
func TestIncrementalMapIDConsistency(t *testing.T) {
	f := func(hops []uint16, fRaw uint8) bool {
		s := randEvidence(hops)
		cfg := Config{IP2AS: quickIP2AS(), F: float64(fRaw%11) / 10}
		st := newRunState(&cfg, EvidenceFrom(s))
		st.fixpoint()
		// The incrementally maintained §4.6 fingerprint must equal the
		// from-scratch recompute: every mutation funnel kept it in step.
		if st.stateHash() != st.stateHashRecompute() {
			return false
		}
		for hi, id := range st.idx.mapID {
			want := st.idx.baseID[hi>>1]
			if st.ovSet[hi] {
				if want = st.dirConnID[hi]; want < 0 {
					want = st.dirConnID[st.indirectSrc[hi]]
				}
			}
			if id != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}
