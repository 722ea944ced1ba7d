package core

import (
	"fmt"
	"slices"

	"mapit/internal/audit"
	"mapit/internal/inet"
)

// Audit checkpoint stages (audit.Violation.Stage values).
const (
	auditStageBuild  = "state-build"
	auditStageAdd    = "add-step"
	auditStageRemove = "remove-step"
	auditStageFinal  = "final"
)

// runAuditor executes the runtime invariant audit at fixpoint step
// boundaries, cross-checking the maintained state against first
// principles. Every checkpoint runs from serial fixpoint code between
// steps, so the checks may read any state freely; none of them mutate
// anything the algorithm observes (directScan refills a scratch buffer
// that every caller rebuilds before reading).
//
// See DESIGN.md §10 for the invariant catalogue.
type runAuditor struct {
	checker *audit.Checker
	report  *audit.Report
	sc      electScratch // private election scratch, never shared with scan workers
}

func newRunAuditor(c *audit.Checker) *runAuditor {
	return &runAuditor{checker: c, report: audit.NewReport(c.Mode)}
}

// check counts one evaluated assertion.
func (a *runAuditor) check() { a.report.Checks++ }

// violate records one failed assertion.
func (a *runAuditor) violate(check, stage string, iter int, format string, args ...any) {
	a.report.Record(audit.Violation{
		Check:     check,
		Stage:     stage,
		Iteration: iter,
		Detail:    fmt.Sprintf(format, args...),
	}, a.checker.Cap())
}

// stride returns the sampling stride and this checkpoint's offset. The
// offset rotates with the checkpoint counter so repeated Sampled-mode
// checkpoints cover different residue classes of each structure.
func (a *runAuditor) stride() (stride, offset int32) {
	s := int32(a.checker.Stride())
	return s, int32(a.report.Steps) % s
}

// auditCheckpoint runs every applicable invariant check for the stage.
// No-op unless Config.Audit enabled auditing.
func (st *runState) auditCheckpoint(stage string, iter int) {
	if st.stepHook != nil {
		st.stepHook(stage, iter)
	}
	a := st.auditor
	if a == nil {
		return
	}
	a.report.Steps++
	st.auditStateHash(stage, iter)
	st.auditInterning(stage, iter)
	st.auditMapping(stage, iter)
	st.auditDirectScan(stage, iter)
	st.auditBaseMapping(stage, iter)
	st.auditBacking(stage, iter)
	st.auditElections(stage, iter)
}

// auditFinish finalises the report for attachment to the Result.
func (st *runState) auditFinish() {
	a := st.auditor
	if a == nil {
		return
	}
	a.report.Sort()
	st.diag.AuditViolations = a.report.Total()
}

// auditStateHash checks the O(1) group-sum fingerprint every mutation
// funnel maintains against a from-scratch rebuild over the inference
// columns (§4.6 stopping rule input).
func (st *runState) auditStateHash(stage string, iter int) {
	a := st.auditor
	a.check()
	if got, want := st.stateHash(), st.stateHashRecompute(); got != want {
		a.violate("state-hash", stage, iter,
			"maintained fingerprint %#x != recomputed %#x", got, want)
	}
}

// auditInterning checks ASN/org interning bijectivity: asnOf and
// idOfASN invert each other, every interned ASN's organisation id
// matches the canonical-ASN table, and the org id space is dense.
func (st *runState) auditInterning(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	a.check()
	if len(ix.idOfASN) != len(ix.asnOf) {
		a.violate("interning", stage, iter,
			"idOfASN has %d entries, asnOf %d", len(ix.idOfASN), len(ix.asnOf))
	}
	a.check()
	if len(ix.orgIDOf) != ix.orgCount {
		a.violate("interning", stage, iter,
			"orgIDOf has %d entries, orgCount %d", len(ix.orgIDOf), ix.orgCount)
	}
	for id, asn := range ix.asnOf {
		a.check()
		if back, ok := ix.idOfASN[asn]; !ok || back != int32(id) {
			a.violate("interning", stage, iter,
				"asnOf[%d] = %d but idOfASN[%d] = %d (present=%v)", id, asn, asn, back, ok)
			continue
		}
		oid := ix.orgOfASN[id]
		if oid < 0 || int(oid) >= ix.orgCount {
			a.violate("interning", stage, iter,
				"ASN %d has out-of-range org id %d (orgCount %d)", asn, oid, ix.orgCount)
			continue
		}
		if want, ok := ix.orgIDOf[st.cfg.Orgs.Canonical(asn)]; !ok || want != oid {
			a.violate("interning", stage, iter,
				"ASN %d interned with org id %d, canonical table says %d (present=%v)",
				asn, oid, want, ok)
		}
	}
}

// auditMapping checks the committed-mapping view the elections read
// (idx.mapID): the base mapping where no override is in force, an
// announced ASN where one is.
func (st *runState) auditMapping(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	for hi := off; hi < int32(len(ix.mapID)); hi += stride {
		a.check()
		got, base := ix.mapID[hi], ix.baseID[hi>>1]
		ok := got == base
		if st.ovSet[hi] {
			ok = got >= 0
		}
		if !ok {
			a.violate("mapping", stage, iter,
				"half %v: mapID view says %d with override %v, base mapping %d",
				st.halfAt(hi), ix.asnAt(got), st.ovSet[hi], ix.asnAt(base))
		}
	}
}

// auditDirectScan checks, at add/remove step boundaries, the directScan
// list the resolutions and remove passes iterate against a full scan of
// every half for direct inferences. The final checkpoint skips it: it
// runs after the §4.8 stub heuristic, whose inferences sit on
// non-eligible halves directScan never visits.
func (st *runState) auditDirectScan(stage string, iter int) {
	if stage == auditStageFinal {
		return
	}
	a := st.auditor
	a.check()
	got := st.directScan()
	var want []int32
	for hi, c := range st.dirConnID {
		if c >= 0 {
			want = append(want, int32(hi))
		}
	}
	if !slices.Equal(got, want) {
		a.violate("direct-scan", stage, iter,
			"directScan lists %d halves, a full scan %d (or order diverges)", len(got), len(want))
	}
}

// auditOtherSides is the state-build check behind the implicit
// other-side records (see runState): every other side outside the
// interface universe has exactly one interface partner (§4.2), and an
// indexed other side of an observed interface pairs back with it, so
// severing a pair never strands a record on a third address.
func (st *runState) auditOtherSides() {
	a, ix := st.auditor, &st.idx
	var outside []inet.Addr
	for ai, oi := range ix.otherIdx {
		switch {
		case !st.hasOther[ai]:
		case oi < 0:
			outside = append(outside, st.otherA[ai])
		case st.hasOther[oi]:
			a.check()
			if ix.otherIdx[oi] != int32(ai) {
				a.violate("other-side", auditStageBuild, 0,
					"%v pairs with %v, which pairs with %v", st.addrs[ai], st.addrs[oi], st.otherA[oi])
			}
		}
	}
	slices.Sort(outside)
	for k := range outside {
		a.check()
		if k > 0 && outside[k] == outside[k-1] {
			a.violate("other-side", auditStageBuild, 0,
				"outside other side %v has more than one interface partner", outside[k])
		}
	}
}

// auditBaseMapping re-resolves sampled interface addresses through the
// lookup sources: the base mapping and IXP flag the state build stored
// for each id must be exactly what a direct Chain/Table and directory
// lookup returns. The sources are frozen for the run, so divergence
// means the dense state was corrupted, not that a source moved.
func (st *runState) auditBaseMapping(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	for i := off; i < int32(len(st.addrs)); i += stride {
		addr := st.addrs[i]
		asn, _ := st.cfg.IP2AS.Lookup(addr)
		a.check()
		if got := ix.asnAt(ix.baseID[i]); got != asn {
			a.violate("base-mapping", stage, iter,
				"addr %v has base mapping %d, source says %d", addr, got, asn)
		}
		a.check()
		if want := st.cfg.IXP.IsIXPAddr(addr) || st.cfg.IXP.IsIXPASN(asn); ix.ixpA[i] != want {
			a.violate("base-mapping", stage, iter,
				"addr %v has IXP flag %v, sources say %v", addr, ix.ixpA[i], want)
		}
	}
}

// auditBacking checks that every surviving indirect association and
// every committed override is backed by a live inference record, and —
// outside the WholeInterfaceUpdates ablation, whose mirrored commits
// deliberately overwrite across halves — that override values equal the
// backing inference's connected AS. These are whole-column walks; they
// are cheap relative to elections, so Sampled mode runs them in full.
func (st *runState) auditBacking(stage string, iter int) {
	a := st.auditor
	for hi := range int32(len(st.indirectSrc)) {
		if src := st.indirectSrc[hi]; src >= 0 {
			a.check()
			if st.dirConnID[src] < 0 {
				a.violate("backing", stage, iter,
					"indirect record on %v names source %v, which carries no direct inference",
					st.halfAt(hi), st.halfAt(src))
			}
		}
		if !st.ovSet[hi] {
			continue
		}
		id := st.idx.mapID[hi]
		a.check()
		backing := st.dirConnID[hi]
		if src := st.indirectSrc[hi]; backing < 0 && src >= 0 {
			backing = st.dirConnID[src]
		}
		switch {
		case backing >= 0:
			if !st.cfg.WholeInterfaceUpdates && id != backing {
				a.violate("backing", stage, iter,
					"override on %v is %d but its backing inference says %d",
					st.halfAt(hi), st.idx.asnOf[id], st.idx.asnOf[backing])
			}
		case st.cfg.WholeInterfaceUpdates && st.dirConnID[hi^1] >= 0:
		default:
			a.violate("backing", stage, iter,
				"override on %v (%d) survives with no backing inference record",
				st.halfAt(hi), st.idx.asnOf[id])
		}
	}
}

// auditElections is the first-principles re-election sweep: for each
// (sampled) eligible half it recounts the §4.4.1 election from the
// committed mappings with the auditor's own scratch, and checks
//
//   - add-fixpoint (add-step boundaries): no half the step left
//     uninferred would pass the direct-inference test — the step really
//     ran to convergence;
//   - retention (remove-step boundaries): every surviving non-stub
//     direct inference still satisfies the §4.5 criterion.
func (st *runState) auditElections(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	for k := off; k < int32(len(ix.halvesIdx)); k += stride {
		hi := ix.halvesIdx[k]
		fresh := st.electNeighborAS(hi, &a.sc)
		switch {
		case stage == auditStageAdd && !st.cfg.SinglePass:
			if st.dirConnID[hi] < 0 && !st.inferredOnce[hi] {
				a.check()
				if d, ok := st.scanHalfElect(hi, fresh); ok {
					a.violate("add-fixpoint", stage, iter,
						"half %v would still be inferred (connected %d) after the add step converged",
						st.halfAt(hi), ix.asnOf[d.connID])
				}
			}
		case stage == auditStageRemove && !st.cfg.DisableRemoveStep:
			if connID := st.dirConnID[hi]; connID >= 0 && !st.dirStub[hi] {
				a.check()
				if !st.stillSupportedElect(fresh, connID) {
					a.violate("retention", stage, iter,
						"half %v retains a direct inference (connected %d) that fails the §4.5 criterion",
						st.halfAt(hi), ix.asnOf[connID])
				}
			}
		}
	}
}
