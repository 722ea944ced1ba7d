package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mapit/internal/audit"
	"mapit/internal/topo"
)

// Tests for the runtime invariant auditor: clean runs stay clean (and
// byte-identical to unaudited runs), sampling covers less than
// exhaustive auditing, and deliberately corrupted state is detected by
// the check responsible for it.

func exhaustiveChecker() *audit.Checker {
	return &audit.Checker{Mode: audit.Exhaustive}
}

// TestAuditCleanTopoSweep: exhaustive audits over synthetic worlds pass
// every check, and the audited Result is identical to the unaudited one
// apart from the attached report.
func TestAuditCleanTopoSweep(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		gen := topo.SmallGenConfig()
		gen.Seed = seed
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.DestsPerMonitor = 400
		ds := w.GenTraces(tc)
		orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
		ev := EvidenceFrom(ds.Sanitize())
		cfg := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir,
			F: 0.5, Workers: 4}
		plain, err := RunEvidence(ev, cfg)
		if err != nil {
			t.Fatalf("seed %d: unaudited run: %v", seed, err)
		}
		cfg.Audit = exhaustiveChecker()
		audited, err := RunEvidence(ev, cfg)
		if err != nil {
			t.Fatalf("seed %d: audited run: %v", seed, err)
		}
		rep := audited.Audit
		if rep == nil {
			t.Fatalf("seed %d: audited run carries no report", seed)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: audit found violations:\n%s\n%v", seed, rep, rep.Violations)
		}
		if rep.Steps == 0 || rep.Checks == 0 {
			t.Fatalf("seed %d: audit ran no checks (%s)", seed, rep)
		}
		if audited.Diag.AuditViolations != 0 {
			t.Fatalf("seed %d: clean run reports %d violations in Diag",
				seed, audited.Diag.AuditViolations)
		}
		if plain.Audit != nil {
			t.Fatalf("seed %d: unaudited run grew a report", seed)
		}
		if !reflect.DeepEqual(plain.Inferences, audited.Inferences) ||
			plain.Diag != audited.Diag ||
			!reflect.DeepEqual(plain.ProbeSuggestions, audited.ProbeSuggestions) {
			t.Fatalf("seed %d: auditing changed the result", seed)
		}
	}
}

// TestAuditQuickCleanAblations: exhaustive audits stay clean on
// arbitrary random evidence across the ablation grid the checks
// special-case (SinglePass, WholeInterfaceUpdates, DisableRemoveStep,
// the f sweep).
func TestAuditQuickCleanAblations(t *testing.T) {
	f := func(hops []uint16, fRaw uint8, wiu, single, noRemove bool) bool {
		s := randEvidence(hops)
		r, err := Run(s, Config{
			IP2AS:                 quickIP2AS(),
			F:                     float64(fRaw%11) / 10,
			WholeInterfaceUpdates: wiu,
			SinglePass:            single,
			DisableRemoveStep:     noRemove,
			Audit:                 exhaustiveChecker(),
		})
		if err != nil {
			return false
		}
		if !r.Audit.Ok() {
			t.Logf("violations: %v", r.Audit.Violations)
			return false
		}
		return r.Diag.AuditViolations == 0
	}
	if err := quick.Check(f, quickCfg(60)); err != nil {
		t.Fatal(err)
	}
}

// TestAuditSampledMode: Sampled mode audits the same checkpoints with
// strictly fewer checks than Exhaustive, and stays clean.
func TestAuditSampledMode(t *testing.T) {
	gen := topo.SmallGenConfig()
	gen.Seed = 7
	w := topo.Generate(gen)
	tc := topo.DefaultTraceConfig()
	tc.DestsPerMonitor = 400
	ds := w.GenTraces(tc)
	orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
	ev := EvidenceFrom(ds.Sanitize())
	base := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir, F: 0.5}

	run := func(c *audit.Checker) *audit.Report {
		cfg := base
		cfg.Audit = c
		r, err := RunEvidence(ev, cfg)
		if err != nil {
			t.Fatalf("%v: %v", c.Mode, err)
		}
		if r.Audit == nil || !r.Audit.Ok() {
			t.Fatalf("%v: audit not clean: %v", c.Mode, r.Audit)
		}
		return r.Audit
	}
	ex := run(exhaustiveChecker())
	sm := run(&audit.Checker{Mode: audit.Sampled, SampleStride: 8})
	if sm.Steps != ex.Steps {
		t.Fatalf("checkpoint counts diverge: sampled %d, exhaustive %d", sm.Steps, ex.Steps)
	}
	if sm.Checks >= ex.Checks {
		t.Fatalf("sampling did not reduce work: sampled %d checks, exhaustive %d",
			sm.Checks, ex.Checks)
	}
}

// auditFixture builds a converged runState with exhaustive auditing that
// carries at least one direct inference and one override — the raw
// material the injection tests corrupt.
func auditFixture(t *testing.T) *runState {
	t.Helper()
	ip2as := table(
		"62.115.0.0/16=1299",
		"4.68.0.0/16=3356",
		"91.200.0.0/16=51159",
	)
	s := sanitized(
		tr("62.115.0.1", "4.68.110.186", "91.200.0.1"),
		tr("62.115.0.5", "4.68.110.186", "91.200.0.5"),
		tr("62.115.0.9", "4.68.110.186", "91.200.0.9"),
	)
	cfg := &Config{IP2AS: ip2as, F: 0.5, Audit: exhaustiveChecker()}
	st := newRunState(cfg, EvidenceFrom(s))
	st.fixpoint()
	if !st.auditor.report.Ok() {
		t.Fatalf("fixture not clean before corruption: %v", st.auditor.report.Violations)
	}
	present := func(id int32) bool { return id >= 0 }
	if !slices.ContainsFunc(st.dirConnID, present) || !slices.Contains(st.ovSet, true) {
		t.Fatal("fixture carries no direct inference or no override")
	}
	return st
}

func hasViolation(r *audit.Report, check string) bool {
	for _, v := range r.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}

// TestAuditDetectsCorruption: each corruption of the maintained state
// is caught by the check built for it. The checkpoint runs at
// the "final" stage, whose checks do not depend on step-boundary
// conditions the manual corruption would also disturb.
func TestAuditDetectsCorruption(t *testing.T) {
	cases := []struct {
		name, check string
		corrupt     func(t *testing.T, st *runState)
	}{
		{"state-hash", "state-hash", func(t *testing.T, st *runState) {
			st.hashSum ^= 0xdeadbeef
		}},
		{"state-hash-column", "state-hash", func(t *testing.T, st *runState) {
			for hi := range st.dirConnID {
				if st.dirConnID[hi] >= 0 {
					st.dirConnID[hi] = -1
					return
				}
			}
			t.Fatal("no direct inference to drop")
		}},
		{"mapping", "mapping", func(t *testing.T, st *runState) {
			for hi, set := range st.ovSet {
				if !set && st.idx.baseID[hi>>1] >= 0 {
					st.idx.mapID[hi] = -1
					return
				}
			}
			t.Fatal("no announced half without an override to corrupt")
		}},
		{"base-mapping", "base-mapping", func(t *testing.T, st *runState) {
			for i, id := range st.idx.baseID {
				if id >= 0 {
					st.idx.baseID[i] = -1
					return
				}
			}
			t.Fatal("no announced base mapping to corrupt")
		}},
		{"base-mapping-ixp", "base-mapping", func(t *testing.T, st *runState) {
			st.idx.ixpA[0] = !st.idx.ixpA[0]
		}},
		{"backing", "backing", func(t *testing.T, st *runState) {
			for hi := range st.dirConnID {
				if st.dirConnID[hi] < 0 && st.indirectSrc[hi] < 0 && !st.ovSet[hi] {
					st.ovSet[hi] = true
					st.idx.mapID[hi] = 0
					return
				}
			}
			t.Fatal("no inference-free half to plant an override on")
		}},
		{"interning", "interning", func(t *testing.T, st *runState) {
			st.idx.asnOf[0]++
		}},
		{"other-side-shared", "other-side", func(t *testing.T, st *runState) {
			// Give a second interface the outside other side of a first:
			// the implicit records of the two would collide.
			first := -1
			for ai := range st.addrs {
				if st.hasOther[ai] && st.idx.otherIdx[ai] < 0 {
					if first < 0 {
						first = ai
						continue
					}
					st.otherA[ai] = st.otherA[first]
					st.auditOtherSides()
					return
				}
			}
			t.Fatal("fewer than two interfaces with outside other sides")
		}},
		{"other-side-asymmetric", "other-side", func(t *testing.T, st *runState) {
			for ai := range st.addrs {
				if aj := ai + 1; aj < len(st.addrs) && st.hasOther[ai] && st.hasOther[aj] {
					st.idx.otherIdx[ai] = int32(aj)
					st.idx.otherIdx[aj] = -1
					st.auditOtherSides()
					return
				}
			}
			t.Fatal("no two adjacent interfaces with other sides")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := auditFixture(t)
			before := st.auditor.report.Total()
			c.corrupt(t, st)
			st.auditCheckpoint(auditStageFinal, 9)
			rep := st.auditor.report
			if rep.Total() == before {
				t.Fatalf("corruption went undetected")
			}
			if !hasViolation(rep, c.check) {
				t.Fatalf("expected a %q violation, got %v", c.check, rep.Violations)
			}
			st.auditFinish()
			if st.diag.AuditViolations != rep.Total() {
				t.Fatalf("Diag.AuditViolations=%d, report total %d",
					st.diag.AuditViolations, rep.Total())
			}
		})
	}
}

// TestAuditBoundaryChecks: the add-fixpoint and retention checks fire
// when inference state contradicts a from-scratch election at the step
// boundaries they guard.
func TestAuditBoundaryChecks(t *testing.T) {
	t.Run("retention", func(t *testing.T) {
		st := auditFixture(t)
		// Swap a live direct inference's connected AS for one the
		// election cannot possibly return.
		var hi int32 = -1
		for i := range st.dirConnID {
			if st.dirConnID[i] >= 0 && !st.dirStub[i] {
				hi = int32(i)
				break
			}
		}
		if hi < 0 {
			t.Fatal("no direct inference to corrupt")
		}
		cur := st.dirConnID[hi]
		st.dirConnID[hi] = (cur + 1) % int32(len(st.idx.asnOf))
		st.auditCheckpoint(auditStageRemove, 9)
		if !hasViolation(st.auditor.report, "retention") {
			t.Fatalf("expected a retention violation, got %v", st.auditor.report.Violations)
		}
	})
	t.Run("add-fixpoint", func(t *testing.T) {
		st := auditFixture(t)
		// Erase a direct inference through the real funnels (so the
		// columns and the fingerprint stay coherent) without latching
		// its half: the from-scratch election still passes, so the add
		// step "missed" it.
		var hi int32 = -1
		for i := range st.dirConnID {
			if st.dirConnID[i] >= 0 && !st.dirStub[i] {
				hi = int32(i)
				break
			}
		}
		if hi < 0 {
			t.Fatal("no direct inference to erase")
		}
		st.unsetDirect(hi)
		st.recomputeOverride(hi)
		st.inferredOnce[hi] = false
		st.auditCheckpoint(auditStageAdd, 9)
		if !hasViolation(st.auditor.report, "add-fixpoint") {
			t.Fatalf("expected an add-fixpoint violation, got %v", st.auditor.report.Violations)
		}
	})
	t.Run("direct-scan", func(t *testing.T) {
		st := auditFixture(t)
		// Plant a direct record on a non-eligible half through the real
		// funnel, so the columns and the fingerprint agree: only
		// directScan, which walks the eligible halves, misses it.
		var hi int32 = -1
		for i := int32(0); i < int32(len(st.dirConnID)); i++ {
			if st.idx.nbrOff[i+1] == st.idx.nbrOff[i] && st.dirConnID[i] < 0 {
				hi = i
				break
			}
		}
		if hi < 0 {
			t.Fatal("no non-eligible half to plant a record on")
		}
		st.setDirect(hi, 0, st.idx.mapID[hi], false)
		// The final checkpoint skips the check: §4.8 stub inferences
		// legitimately sit on non-eligible halves after the loop.
		st.auditCheckpoint(auditStageFinal, 9)
		if !st.auditor.report.Ok() {
			t.Fatalf("final checkpoint flagged the planted record: %v", st.auditor.report.Violations)
		}
		st.auditCheckpoint(auditStageAdd, 9)
		if !hasViolation(st.auditor.report, "direct-scan") {
			t.Fatalf("expected a direct-scan violation, got %v", st.auditor.report.Violations)
		}
	})
}

// TestAuditReportString: the one-line summary carries the headline
// numbers (drive-by coverage for the cmd-level -stats print).
func TestAuditReportString(t *testing.T) {
	st := auditFixture(t)
	rep := st.auditor.report
	s := rep.String()
	for _, want := range []string{"exhaustive", fmt.Sprint(rep.Steps), "ok"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string %q missing %q", s, want)
		}
	}
}
