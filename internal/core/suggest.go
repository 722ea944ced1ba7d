package core

import "mapit/internal/inet"

// ProbeSuggestion marks an interface half that looks like an inter-AS
// boundary but lacks the evidence MAP-IT requires: its single neighbour
// belongs to a different organisation, yet |N| < 2 blocks a direct
// inference and the ISP guard blocks the stub heuristic. The paper's
// §5.4 names the remedy — "to try to expose more interface addresses by
// targeting the links with additional traces" — and these records are
// the targeting list: probe destinations beyond the interface (forward
// halves) or sources feeding it (backward halves) to raise |N|.
type ProbeSuggestion struct {
	// Addr and Dir identify the starving half.
	Addr inet.Addr
	Dir  Direction
	// Neighbor is the lone adjacent address.
	Neighbor inet.Addr
	// LocalAS and NeighborAS are the committed mappings on each side of
	// the suspected boundary.
	LocalAS, NeighborAS inet.ASN
}

// suggestProbes scans for single-neighbour halves whose lone neighbour
// crosses an organisation boundary and that carry no inference. The
// scan runs in halfIdx order, so suggestions come out sorted by
// (Addr, Dir).
func (st *runState) suggestProbes() []ProbeSuggestion {
	ix := &st.idx
	var out []ProbeSuggestion
	for hi := range int32(2 * len(st.addrs)) {
		nbrs := st.ns(hi)
		if len(nbrs) != 1 || ix.ixpA[hi>>1] {
			continue
		}
		if st.hasInferenceIdx(hi) || st.hasInferenceIdx(hi^1) {
			continue
		}
		n := nbrs[0]
		if ix.ixpA[n] {
			continue
		}
		dir := Direction(hi & 1)
		nh := halfSlot(n, dir.Opposite())
		localID, nbrID := ix.mapID[hi], ix.mapID[nh]
		if localID < 0 || nbrID < 0 || ix.orgOfASN[localID] == ix.orgOfASN[nbrID] {
			continue
		}
		if st.hasInferenceIdx(nh) {
			continue // the boundary is already pinned from the far side
		}
		out = append(out, ProbeSuggestion{
			Addr: st.addrs[hi>>1], Dir: dir, Neighbor: st.addrs[n],
			LocalAS: ix.asnOf[localID], NeighborAS: ix.asnOf[nbrID],
		})
	}
	return out
}
