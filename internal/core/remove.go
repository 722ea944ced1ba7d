package core

// removeStep is Alg 3 (§4.5): repeated passes demoting direct inferences
// that would no longer be made — the connected organisation must still
// account for more than half of the half's neighbour set under the
// committed mappings. A demoted inference survives only as an indirect
// inference backed by a direct inference on its other side; at the end
// of each pass every indirect inference without a surviving associated
// direct inference is discarded along with its IP2AS update. Each pass
// reads only the previous pass's committed state.
//
// Every pass re-elects every direct inference. The phase-1 scan is
// read-only against committed state, so it shards across cfg.Workers
// exactly as directPass does; chunk-ordered concatenation over a sorted
// scan list keeps the demote order identical to the serial scan.
func (st *runState) removeStep() {
	if st.cfg.DisableRemoveStep {
		return
	}
	for {
		st.diag.RemovePasses++
		// Phase 1: find direct inferences that no longer hold, against
		// the committed (previous-pass) state.
		scanList := st.directScan()
		shards := resetShards(&st.demoteShards, numChunks(len(scanList), st.cfg.workers()))
		parallelChunks(len(scanList), st.cfg.workers(), func(w, lo, hi int) {
			sc := &st.electScr[w]
			for _, hidx := range scanList[lo:hi] {
				if !st.stillSupported(hidx, st.dirConnID[hidx], sc) {
					shards[w] = append(shards[w], hidx)
				}
			}
		})
		demote := st.demoteBuf[:0]
		for _, s := range shards {
			demote = append(demote, s...)
		}
		st.demoteBuf = demote

		// Phase 2: demote them to indirect (retaining the IP2AS
		// mapping for now), associated with their other side: the
		// inference survives iff the other side's direct inference
		// stands. With no indexed other side, or a severed pairing,
		// nothing can back it, so it is associated with itself and the
		// purge below drops it.
		for _, hidx := range demote {
			st.unsetDirect(hidx)
			st.diag.Demoted++
			if st.cfg.WholeInterfaceUpdates {
				// The mirrored opposite-half override loses its
				// backing direct inference with the demotion.
				st.recomputeOverride(hidx ^ 1)
			}
			if st.indirectSrc[hidx] < 0 {
				src := hidx
				if oh, ok := st.otherHalfIdx(hidx); ok {
					src = oh
				}
				st.setIndirect(hidx, src)
			}
		}

		// Phase 3: purge indirect inferences whose associated direct
		// inference is gone, removing their updates.
		purge := st.purgeBuf[:0]
		for hi, src := range st.indirectSrc {
			if src >= 0 && st.dirConnID[src] < 0 {
				purge = append(purge, int32(hi))
			}
		}
		st.purgeBuf = purge
		for _, hi := range purge {
			st.unsetIndirect(hi)
			st.recomputeOverride(hi)
		}

		if len(demote) == 0 && len(purge) == 0 {
			return
		}
	}
}

// stillSupported checks the §4.5 retention criterion for a direct
// inference — Alg 3's "if the inference would no longer be made": the
// connected organisation must still win the strict plurality of the
// half's neighbour set under the committed mappings and still clear the
// f threshold. (The §4.5 prose paraphrases this as the connected AS
// "accounting for more than half" of N; we implement the algorithm's own
// rule so add and remove stay symmetric at every f.) connID is the
// inference's interned connected ASN.
func (st *runState) stillSupported(hi, connID int32, sc *electScratch) bool {
	return st.stillSupportedElect(st.electNeighborAS(hi, sc), connID)
}

// stillSupportedElect is the election-consuming tail of stillSupported,
// split out so the auditor can recheck retention with its own election
// scratch.
func (st *runState) stillSupportedElect(elect countResult, connID int32) bool {
	if elect.winnerOrg < 0 || elect.winnerOrg != st.idx.orgOfASN[connID] {
		return false
	}
	return float64(elect.votes) >= st.cfg.F*float64(elect.total)
}
