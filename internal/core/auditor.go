package core

import (
	"fmt"
	"slices"

	"mapit/internal/audit"
	"mapit/internal/inet"
)

// Audit checkpoint stages (audit.Violation.Stage values).
const (
	auditStageAdd    = "add-step"
	auditStageRemove = "remove-step"
	auditStageFinal  = "final"
)

// runAuditor executes the runtime invariant audit at fixpoint step
// boundaries, cross-checking the incremental machinery against first
// principles. Every checkpoint runs from serial fixpoint code between
// steps, so the checks may read any state freely; none of them mutate
// anything the algorithm observes (sortedDirectIdxs compaction is the
// one state-touching call, and it is semantically idempotent).
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
	if a.report.Steps == 1 {
		st.auditIndexSymmetry(stage, iter)
	}
	st.auditStateHash(stage, iter)
	st.auditInterning(stage, iter)
	st.auditDirtyDrained(stage, iter)
	st.auditMirrors(stage, iter)
	st.auditMemoIP2AS(stage, iter)
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

// auditIndexSymmetry verifies the half-election symmetry of the static
// intern index, once per run (the index is immutable after build): for
// every eligible half h, each non-IXP entry n in h's flat neighbour
// range must list h among its reverse dependents — h's election reads
// n's mapping, so a commit to n must be able to find h — and every
// reverse dependent recorded for a half must actually read it.
func (st *runState) auditIndexSymmetry(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	contains := func(list []int32, x int32) bool {
		for _, v := range list {
			if v == x {
				return true
			}
		}
		return false
	}
	for k := off; k < int32(len(ix.halvesIdx)); k += stride {
		hi := ix.halvesIdx[k]
		for _, ni := range ix.nbrFlat[ix.nbrOff[hi]:ix.nbrOff[hi+1]] {
			if ni < 0 {
				continue // IXP member: no votes, no dependency edge
			}
			a.check()
			deps := ix.depFlat[ix.depOff[ni]:ix.depOff[ni+1]]
			if !contains(deps, hi) {
				a.violate("index-symmetry", stage, iter,
					"half %v reads %v but is missing from its dependents",
					st.halfAt(hi), st.halfAt(ni))
			}
		}
	}
	// Reverse direction: every dependency edge corresponds to a read.
	for x := off; x < int32(len(st.addrs))*2; x += stride {
		for _, dep := range ix.depFlat[ix.depOff[x]:ix.depOff[x+1]] {
			a.check()
			nbrs := ix.nbrFlat[ix.nbrOff[dep]:ix.nbrOff[dep+1]]
			if !contains(nbrs, x) {
				a.violate("index-symmetry", stage, iter,
					"half %v listed as dependent of %v but never reads it",
					st.halfAt(dep), st.halfAt(x))
			}
		}
	}
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

// auditDirtyDrained checks dirty-set bookkeeping: the mark array and
// the list agree exactly, and — at add/remove step boundaries, where
// the step just ran its internal loop to fixpoint — the set is empty
// (the final, non-mutating pass of a converged step marks nothing).
// The final checkpoint runs after the stub heuristic, whose commits
// legitimately mark readers dirty, so only internal consistency is
// checked there; SinglePass aborts the add step mid-flight, so its
// boundary check is skipped too.
func (st *runState) auditDirtyDrained(stage string, iter int) {
	a, ds := st.auditor, &st.dirty
	a.check()
	marked := 0
	for _, m := range ds.mark {
		if m {
			marked++
		}
	}
	listed := 0
	for _, idx := range ds.list {
		if ds.mark[idx] {
			listed++
		} else {
			a.violate("dirty-set", stage, iter,
				"half %v listed dirty but not marked", st.halfAt(idx))
		}
	}
	if marked != listed {
		a.violate("dirty-set", stage, iter,
			"%d halves marked dirty but only %d listed", marked, listed)
	}
	if stage != auditStageFinal && !st.cfg.SinglePass {
		a.check()
		if len(ds.list) != 0 {
			a.violate("dirty-set", stage, iter,
				"dirty set holds %d halves at a converged step boundary", len(ds.list))
		}
	}
}

// auditMirrors checks the flat inference-state mirrors against the
// authoritative Half-keyed maps, the committed-mapping view against
// mapping(), and the maintained sorted direct index against a
// from-scratch collection.
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
		var got inet.ASN
		if id := ix.mapID[hi]; id >= 0 {
			got = ix.asnOf[id]
		}
		if want := st.mapping(h); got != want {
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
	// Maintained sorted direct index vs a from-scratch collection.
	if !st.cfg.DisableIncremental {
		a.check()
		got := st.sortedDirectIdxs()
		want := make([]int32, 0, len(st.direct))
		for h := range st.direct {
			want = append(want, st.halfIdx(h))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			a.violate("mirror", stage, iter,
				"maintained direct index has %d entries, authoritative map %d (or order diverges)",
				len(got), len(want))
		}
	}
}

// auditMemoIP2AS re-resolves memoised IP→AS entries through the
// underlying lookup source: a memo hit must be exactly what a direct
// Chain/Table lookup returns. The sources are frozen for the run, so
// divergence means the memo was corrupted, not that the source moved.
func (st *runState) auditMemoIP2AS(stage string, iter int) {
	a := st.auditor
	stride, off := a.stride()
	keys := make([]inet.Addr, 0, len(st.ip2as.m))
	for addr := range st.ip2as.m {
		keys = append(keys, addr)
	}
	slices.Sort(keys)
	for i := int(off); i < len(keys); i += int(stride) {
		addr := keys[i]
		a.check()
		hit := st.ip2as.m[addr]
		asn, ok := st.ip2as.src.Lookup(addr)
		if hit.asn != asn || hit.ok != ok {
			a.violate("ip2as-memo", stage, iter,
				"addr %v memoised as (%d,%v), source says (%d,%v)", addr, hit.asn, hit.ok, asn, ok)
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
// committed mappings — bypassing the memo — and checks
//
//   - election-memo: a memo entry still marked valid must equal the
//     fresh election (a stale-valid entry is exactly a missed
//     markDirtyReaders, i.e. a dirty-set soundness hole);
//   - add-fixpoint (add-step boundaries): no half the step left
//     uninferred would pass the direct-inference test — the dirty-set
//     scan really did reach every half whose inputs changed;
//   - retention (remove-step boundaries): every surviving non-stub
//     direct inference still satisfies the §4.5 criterion.
func (st *runState) auditElections(stage string, iter int) {
	a, ix := st.auditor, &st.idx
	stride, off := a.stride()
	for k := off; k < int32(len(ix.halvesIdx)); k += stride {
		hi := ix.halvesIdx[k]
		fresh := st.electNeighborAS(hi, &a.sc)
		if !st.cfg.DisableIncremental && ix.electValid[hi] {
			a.check()
			if cached := ix.electCache[hi]; cached != fresh {
				a.violate("election-memo", stage, iter,
					"half %v: memo (org=%d conn=%d votes=%d) != fresh (org=%d conn=%d votes=%d)",
					st.halfAt(hi), cached.winnerOrg, cached.connected, cached.votes,
					fresh.winnerOrg, fresh.connected, fresh.votes)
			}
		}
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
