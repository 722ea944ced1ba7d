package core

import (
	"cmp"
	"slices"

	"mapit/internal/inet"
)

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
// crosses an organisation boundary and that carry no inference.
func (st *runState) suggestProbes() []ProbeSuggestion {
	var out []ProbeSuggestion
	for _, a := range st.addrs {
		if st.ixpAddr[a] {
			continue
		}
		for _, dir := range [2]Direction{Forward, Backward} {
			h := Half{Addr: a, Dir: dir}
			nbrs := st.neighbors(h)
			if len(nbrs) != 1 {
				continue
			}
			if st.hasInference(h) || st.hasInference(h.Opposite()) {
				continue
			}
			n := nbrs[0]
			if st.ixpAddr[n] {
				continue
			}
			nh := Half{Addr: n, Dir: dir.Opposite()}
			localAS := st.mapping(h)
			nbrAS := st.mapping(nh)
			if localAS.IsZero() || nbrAS.IsZero() {
				continue
			}
			if st.cfg.Orgs.SameOrg(localAS, nbrAS) {
				continue
			}
			if st.hasInference(nh) {
				continue // the boundary is already pinned from the far side
			}
			out = append(out, ProbeSuggestion{
				Addr: a, Dir: dir, Neighbor: n,
				LocalAS: localAS, NeighborAS: nbrAS,
			})
		}
	}
	slices.SortFunc(out, probeCmp)
	return out
}

// probeCmp is the output order of Result.ProbeSuggestions.
func probeCmp(a, b ProbeSuggestion) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Dir, b.Dir)
}
