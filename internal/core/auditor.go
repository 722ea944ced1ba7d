package core

import (
	"fmt"
	"slices"

	"mapit/internal/audit"
)

// Audit checkpoint stages (audit.Violation.Stage values).
const (
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
	a := st.auditor
	if a == nil {
		return
	}
	a.report.Steps++
	st.auditStateHash(stage, iter)
	st.auditInterning(stage, iter)
	st.auditMirrors(stage, iter)
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
// funnel maintains against a from-scratch rebuild over the
// authoritative maps (§4.6 stopping rule input).
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

// auditMirrors checks the flat inference-state mirrors against the
// authoritative Half-keyed maps, the committed-mapping view against
// mapping(), and — at add/remove step boundaries — the directScan list
// the resolutions and remove passes iterate against a from-scratch
// collection of the direct map. The final checkpoint skips that last
// check: it runs after the §4.8 stub heuristic, whose inferences sit on
// non-eligible halves directScan never visits.
func (st *runState) auditMirrors(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	n := int32(len(st.addrs))
	for hi := off; hi < 2*n; hi += stride {
		h := st.halfAt(hi)
		a.check()
		d, ok := st.direct[h]
		if ok != (st.dirConnID[hi] >= 0) {
			a.violate("mirror", stage, iter,
				"half %v: direct map present=%v but dirConnID=%d", h, ok, st.dirConnID[hi])
		} else if ok {
			if d.connectedID != st.dirConnID[hi] || d.localID != st.dirLocalID[hi] ||
				d.uncertain != st.dirUnc[hi] || d.stub != st.dirStub[hi] {
				a.violate("mirror", stage, iter,
					"half %v: record (conn=%d local=%d unc=%v stub=%v) != mirrors (%d %d %v %v)",
					h, d.connectedID, d.localID, d.uncertain, d.stub,
					st.dirConnID[hi], st.dirLocalID[hi], st.dirUnc[hi], st.dirStub[hi])
			}
			if d.connectedID < 0 || ix.asnOf[d.connectedID] != d.connected {
				a.violate("mirror", stage, iter,
					"half %v: connected %d not interned as id %d", h, d.connected, d.connectedID)
			}
			if (d.localID >= 0) != !d.local.IsZero() ||
				(d.localID >= 0 && ix.asnOf[d.localID] != d.local) {
				a.violate("mirror", stage, iter,
					"half %v: local %d vs intern id %d", h, d.local, d.localID)
			}
		}
		a.check()
		src, iok := st.indirect[h]
		if si := st.indirectSrc[hi]; iok != (si >= 0) {
			a.violate("mirror", stage, iter,
				"half %v: indirect map present=%v but indirectSrc=%d", h, iok, si)
		} else if iok && si != st.halfIdx(src) {
			a.violate("mirror", stage, iter,
				"half %v: indirectSrc=%d but association names %v (idx %d)",
				h, si, src, st.halfIdx(src))
		}
		// Committed-mapping mirror: mapID must agree with mapping().
		a.check()
		if got, want := ix.asnAt(ix.mapID[hi]), st.mapping(hi); got != want {
			a.violate("mirror", stage, iter,
				"half %v: mapID view says %d, mapping() says %d", h, got, want)
		}
		if hi&1 == 0 {
			ai := hi >> 1
			a.check()
			if st.severedIdx[ai] != st.severed[st.addrs[ai]] {
				a.violate("mirror", stage, iter,
					"addr %v: severedIdx=%v but severed map says %v",
					st.addrs[ai], st.severedIdx[ai], st.severed[st.addrs[ai]])
			}
		}
	}
	if stage == auditStageFinal {
		return
	}
	a.check()
	got := st.directScan()
	want := make([]int32, 0, len(st.direct))
	for h := range st.direct {
		want = append(want, st.halfIdx(h))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		a.violate("mirror", stage, iter,
			"directScan lists %d halves, authoritative map %d (or order diverges)",
			len(got), len(want))
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
// backing inference's connected AS. These are whole-map walks; they are
// cheap relative to elections, so Sampled mode runs them in full.
func (st *runState) auditBacking(stage string, iter int) {
	a := st.auditor
	for h, src := range st.indirect {
		a.check()
		if si := st.halfIdx(src); si < 0 || st.dirConnID[si] < 0 {
			a.violate("backing", stage, iter,
				"indirect record on %v names source %v, which carries no direct inference", h, src)
		}
	}
	for h, asn := range st.overrides {
		a.check()
		if d, ok := st.direct[h]; ok {
			if !st.cfg.WholeInterfaceUpdates && asn != d.connected {
				a.violate("backing", stage, iter,
					"override on %v is %d but its direct inference says %d", h, asn, d.connected)
			}
			continue
		}
		if src, ok := st.indirect[h]; ok {
			if d, ok := st.direct[src]; ok {
				if !st.cfg.WholeInterfaceUpdates && asn != d.connected {
					a.violate("backing", stage, iter,
						"override on %v is %d but its backing inference says %d", h, asn, d.connected)
				}
				continue
			}
		}
		if st.cfg.WholeInterfaceUpdates {
			if _, ok := st.direct[h.Opposite()]; ok {
				continue
			}
		}
		a.violate("backing", stage, iter,
			"override on %v (%d) survives with no backing inference record", h, asn)
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
						st.halfAt(hi), d.connected)
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
