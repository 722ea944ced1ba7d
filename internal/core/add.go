package core

import (
	"mapit/internal/inet"
)

// addStep runs §4.4 to fixpoint: repeated passes of direct inference +
// other-side updates + contradiction resolution, each pass reading only
// the state committed by the previous pass. first selects whether the
// Fig 7 stage hooks fire (they describe the *initial* add step only).
//
// The first pass scans every eligible half — that is what gives each
// add step its committed-state §4.4.5 semantics regardless of what the
// previous step left behind. Every later pass scans only the dirty
// set: halves whose election inputs changed since they were last
// scanned (see dirty.go for the invariant). With DisableIncremental
// every pass scans everything, which is the pre-incremental behaviour;
// both modes produce byte-identical state.
func (st *runState) addStep(first bool) {
	st.dirty.clear()
	firstPass := true
	for {
		st.diag.AddPasses++
		var scanList []int32
		if firstPass || st.cfg.DisableIncremental {
			st.dirty.clear()
			scanList = st.idx.halvesIdx
		} else {
			scanList = st.takeDirty()
		}
		added := st.directPass(scanList)
		if first && firstPass {
			st.fireStage(StageDirect, 0)
		}
		changedDual := st.resolveDualInferences()
		changedDivergent := st.resolveDivergentOtherSides()
		if first && firstPass {
			st.fireStage(StageP2P, 0)
		}
		changedInverse := st.resolveInverseInferences()
		if first && firstPass {
			st.fireStage(StageInverse, 0)
		}
		firstPass = false
		if st.cfg.SinglePass {
			return
		}
		if added == 0 && !changedDual && !changedDivergent && !changedInverse {
			return
		}
	}
}

// scanHalf applies the Alg 2 direct-inference test to one half against
// the committed mappings. Read-only; safe from scan workers.
func (st *runState) scanHalf(hi int32, sc *electScratch) (directInf, bool) {
	if st.dirConnID[hi] >= 0 {
		return directInf{}, false
	}
	if st.inferredOnce[hi] {
		return directInf{}, false
	}
	return st.scanHalfElect(hi, st.electCached(hi, sc))
}

// scanHalfElect is the election-consuming tail of scanHalf, split out so
// the auditor can re-run the §4.4.1 tests against a from-scratch
// election instead of the memoised one.
func (st *runState) scanHalfElect(hi int32, elect countResult) (directInf, bool) {
	if elect.winnerOrg < 0 {
		return directInf{}, false
	}
	if float64(elect.votes) < st.cfg.F*float64(elect.total) {
		return directInf{}, false
	}
	curID := st.idx.mapID[hi]
	if curID >= 0 && st.idx.orgOfASN[curID] == elect.winnerOrg {
		return directInf{}, false // no AS switch: internal or sibling boundary (§4.9)
	}
	var cur inet.ASN
	if curID >= 0 {
		cur = st.idx.asnOf[curID]
	}
	return directInf{local: cur, localID: curID,
		connected: elect.connected, connectedID: elect.connectedID}, true
}

// pendingAdd is one scan survivor awaiting commit.
type pendingAdd struct {
	hi int32
	d  directInf
}

// directPass is Alg 2: one pass over scanList making direct inferences
// against the committed mappings, then committing the new inferences
// and their other-side (indirect) updates so they become visible to the
// next pass. scanList must be sorted (half indexes order exactly like
// halfCmp): the full halvesIdx list for a full pass, the drained dirty
// set otherwise. Returns the number of inferences added.
//
// The scan reads only committed state, so it shards across cfg.Workers
// goroutines; per-shard results are concatenated in shard order,
// keeping the commit order — and therefore the run — identical to the
// serial execution. Shard buffers and the merged adds slice persist on
// the runState and are reused across passes.
func (st *runState) directPass(scanList []int32) int {
	shards := resetShards(&st.addShards, numChunks(len(scanList), st.cfg.workers()))
	parallelChunks(len(scanList), st.cfg.workers(), func(w, lo, hi int) {
		sc := &st.electScr[w]
		for _, hidx := range scanList[lo:hi] {
			if d, ok := st.scanHalf(hidx, sc); ok {
				shards[w] = append(shards[w], pendingAdd{hi: hidx, d: d})
			}
		}
	})
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if cap(st.addsBuf) < total {
		st.addsBuf = make([]pendingAdd, 0, total)
	}
	adds := st.addsBuf[:0]
	for _, s := range shards {
		adds = append(adds, s...)
	}
	st.addsBuf = adds
	// Commit: new inferences and updates become visible next pass.
	for i := range adds {
		p := &adds[i]
		h := st.halfAt(p.hi)
		// Copy out of the reused scan buffer: direct holds pointers.
		st.setDirect(h, p.hi, st.newDirectInf(p.d))
		st.inferredOnce[p.hi] = true
		st.setOverrideIdx(h, p.hi, p.d.connected, p.d.connectedID)
		if st.cfg.WholeInterfaceUpdates { // ablation only
			st.setOverrideIdx(h.Opposite(), p.hi^1, p.d.connected, p.d.connectedID)
		}
		// §4.4.2: update the other side of the link, unless the
		// interface is IXP-numbered (multipoint peering LANs have no
		// meaningful /30-/31 other side, fn7) or the pairing was severed.
		ai := p.hi >> 1
		if st.idx.ixpA[ai] {
			continue
		}
		// Indexed other side: the flat mirrors answer the severed and
		// self-direct tests without touching a map. Unindexed (or absent)
		// other sides fall back to the Half-keyed path.
		if oi := st.idx.otherIdx[ai]; oi >= 0 {
			if st.severedIdx[ai] {
				continue
			}
			oh := Half{Addr: st.addrs[oi], Dir: h.Dir.Opposite()}
			ohIdx := halfSlot(oi, oh.Dir)
			st.setIndirectIdx(oh, ohIdx, h, p.hi)
			if st.dirConnID[ohIdx] < 0 {
				st.setOverrideIdx(oh, ohIdx, p.d.connected, p.d.connectedID)
			}
		} else if oh, ok := st.otherHalf(h); ok {
			st.setIndirect(oh, h)
			if _, selfDirect := st.direct[oh]; !selfDirect {
				st.setOverride(oh, p.d.connected)
			}
		}
	}
	return len(adds)
}

// resolveDualInferences applies the §4.4.3 dual-inference rule: when both
// halves of one interface carry direct inferences toward *different*
// organisations, the backward one is the artifact (third-party address:
// the router replied via its outgoing interface) and is discarded.
// Interfaces without a base IP2AS mapping are left alone, as are duals
// toward the same organisation. Reports whether anything changed.
func (st *runState) resolveDualInferences() bool {
	if st.cfg.DisableDualResolution {
		return false
	}
	ix := &st.idx
	changed := false
	var toDrop []int32 // sorted: collected in sorted iteration order
	for _, hi := range st.directScan() {
		if hi&1 == 0 {
			continue // backward halves drive the rule
		}
		connB := st.dirConnID[hi]
		connF := st.dirConnID[hi^1] // forward half of the same interface
		if connF < 0 {
			continue
		}
		if ix.baseID[hi>>1] < 0 {
			continue // unannounced: do not fix (§4.4.3)
		}
		if ix.orgOfASN[connB] == ix.orgOfASN[connF] {
			st.diag.DualSameAS++
			continue // same AS both ways: retain both
		}
		toDrop = append(toDrop, hi)
	}
	for _, hi := range toDrop {
		st.discardDirect(st.halfAt(hi))
		st.inferredOnce[hi] = true // cannot be re-made this add step
		st.diag.DualResolved++
		changed = true
	}
	return changed
}

// resolveDivergentOtherSides applies the second §4.4.3 rule: direct
// inferences on both endpoints of a putative /30-/31 link that name
// different connected organisations mean the other-side pairing itself is
// wrong. The pairing is severed (no more indirect updates across it) and
// both direct inferences stand. Reports whether anything changed.
func (st *runState) resolveDivergentOtherSides() bool {
	ix := &st.idx
	changed := false
	var toSever []int32 // addrIdx, sorted (adjacent duplicates possible)
	for _, hi := range st.directScan() {
		ai := hi >> 1
		if st.severedIdx[ai] || ix.ixpA[ai] {
			continue // IXP LANs are multipoint: no /30-/31 other side (fn7)
		}
		oi := ix.otherIdx[ai]
		if oi < 0 || ix.ixpA[oi] {
			continue
		}
		if ix.baseID[ai] < 0 || ix.baseID[oi] < 0 {
			continue // unannounced: do not fix (§4.4.3)
		}
		// The paper's rule is about the two *interfaces*: a direct
		// inference on either half of the other side naming a
		// different connected organisation diverges.
		myOrg := ix.orgOfASN[st.dirConnID[hi]]
		for _, od := range [2]int32{halfSlot(oi, Forward), halfSlot(oi, Backward)} {
			oc := st.dirConnID[od]
			if oc < 0 {
				continue
			}
			if ix.orgOfASN[oc] != myOrg {
				toSever = append(toSever, ai)
				break
			}
		}
	}
	for _, ai := range toSever {
		a := st.addrs[ai]
		if st.severed[a] {
			continue // already severed via the partner
		}
		other := st.otherSide[a]
		st.severed[a] = true
		st.severedIdx[ai] = true
		st.severed[other] = true
		if oi := ix.otherIdx[ai]; oi >= 0 {
			st.severedIdx[oi] = true
		}
		st.diag.DivergentOtherSides++
		// Drop any indirect couplings between the two interfaces.
		for _, h := range [4]Half{
			{Addr: a, Dir: Forward}, {Addr: a, Dir: Backward},
			{Addr: other, Dir: Forward}, {Addr: other, Dir: Backward},
		} {
			if src, ok := st.indirect[h]; ok && (src.Addr == a || src.Addr == other) {
				st.unsetIndirect(h)
				st.recomputeOverride(h)
			}
		}
		changed = true
	}
	return changed
}

// resolveInverseInferences applies §4.4.4: a forward inference on h
// (link h.AS ↔ AS_B) combined with a backward inference on a member n of
// N_F(h) claiming the inverse link (AS_B ↔ h.AS) cannot both be right.
// The forward inference is topologically nearer to the monitors, so the
// backward one is discarded — unless the backward IH's other side
// carries its own direct inference, in which case neither is nearer and
// both become uncertain. Reports whether anything changed.
func (st *runState) resolveInverseInferences() bool {
	if st.cfg.DisableInverseResolution {
		return false
	}
	ix := &st.idx
	changed := false
	fwd := st.resolveScratch[:0]
	for _, hi := range st.directScan() {
		if hi&1 == 0 && !st.dirUnc[hi] {
			fwd = append(fwd, hi)
		}
	}
	st.resolveScratch = fwd
	for _, hi := range fwd {
		dc := st.dirConnID[hi]
		if dc < 0 {
			continue // discarded earlier in this resolution
		}
		dl := st.dirLocalID[hi]
		// Forward halves are eligible, so the flat neighbour range is
		// exactly N_F; entries are the backward halves of the members
		// (IXP members bit-complemented — recover them, they can carry
		// inferences even though they never vote).
		for _, ni := range ix.nbrFlat[ix.nbrOff[hi]:ix.nbrOff[hi+1]] {
			if ni < 0 {
				ni = ^ni
			}
			bdConn := st.dirConnID[ni]
			if bdConn < 0 {
				continue
			}
			// Inverse means the ASes swap roles across the two claims;
			// unannounced (absent) endpoints match nothing.
			bl := st.dirLocalID[ni]
			if dl < 0 || bl < 0 ||
				ix.orgOfASN[dl] != ix.orgOfASN[bdConn] ||
				ix.orgOfASN[dc] != ix.orgOfASN[bl] {
				continue
			}
			// Corroboration: a direct inference on the other side of
			// the backward IH means neither claim is nearer (§4.4.4).
			corroborated := false
			nai := ni >> 1
			if oi := ix.otherIdx[nai]; oi >= 0 && !st.severedIdx[nai] {
				corroborated = st.dirConnID[halfSlot(oi, Forward)] >= 0
			}
			if corroborated {
				if !st.dirUnc[hi] || !st.dirUnc[ni] {
					st.setUncertain(hi)
					st.setUncertain(ni)
					st.diag.UncertainPairs++
					changed = true
				}
				continue
			}
			st.discardDirect(st.halfAt(ni))
			st.inferredOnce[ni] = true
			st.diag.InverseDiscarded++
			changed = true
		}
	}
	return changed
}
