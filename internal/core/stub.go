package core

// stubHeuristic is Alg 4 (§4.8): after the main loop converges, infer
// links to low-visibility stub ASes and NAT'd stubs from forward halves
// with a single neighbour. The conditions guard against third-party
// addresses: only forward halves qualify; the interface's backward half
// and the neighbour's backward half must carry no inference; the
// neighbour's AS must differ from the interface's and be a stub
// (an AS with no non-sibling customers, or absent from the relationship
// dataset entirely). A third-party reply from a stub would name one of
// its providers, which by definition is not a stub, so no inference
// results.
//
// The candidate filter runs on the dense state: the |N_F| == 1 test
// reads the neighbour-set row, and the inference/mapping/organisation
// tests are array reads. Only actual stub candidates touch the
// relationship dataset.
func (st *runState) stubHeuristic() {
	if st.cfg.Rels == nil || st.cfg.DisableStubHeuristic {
		return
	}
	ix := &st.idx
	for ai := range int32(len(st.addrs)) {
		hfIdx := halfSlot(ai, Forward)
		nf := st.ns(hfIdx)
		if len(nf) != 1 {
			continue
		}
		ni := nf[0]
		nbIdx := halfSlot(ni, Backward)
		if st.hasInferenceIdx(hfIdx) || st.hasInferenceIdx(hfIdx+1) || st.hasInferenceIdx(nbIdx) {
			continue
		}
		if ix.ixpA[ai] || ix.ixpA[ni] {
			continue
		}
		asHID := ix.mapID[hfIdx] // committed mapping of the forward half
		asNID := ix.mapID[nbIdx]
		if asNID < 0 {
			continue
		}
		if asHID >= 0 && ix.orgOfASN[asHID] == ix.orgOfASN[asNID] {
			continue
		}
		asN := ix.asnOf[asNID]
		if !st.cfg.Rels.IsStub(asN, st.cfg.Orgs) {
			continue
		}
		st.setDirect(hfIdx, asNID, asHID, true)
		st.setOverride(hfIdx, asNID)
		st.diag.StubInferences++
		if oh, ok := st.otherHalfIdx(hfIdx); ok && st.dirConnID[oh] < 0 {
			st.setIndirect(oh, hfIdx)
			st.setOverride(oh, asNID)
		}
	}
}
