package core

import (
	"slices"

	"mapit/internal/inet"
)

// internIndex is the dense-ID view of a run's state, built once after
// the neighbour sets: interned ASNs and organisations, the flat
// neighbour index the §4.4.1 election iterates. All IDs are
// int32; -1 means "absent" (unannounced mapping, IXP neighbour, address
// outside the interface universe).
//
// Identifier spaces:
//   - addrIdx: position of an address in the sorted addrs slice.
//   - halfIdx: addrIdx*2 + Dir, so sorting half indexes sorts by
//     (address, direction) — exactly halfCmp order.
//   - asnID: index into asnOf. The universe is every distinct
//     announced base mapping; committed overrides only ever carry ASNs
//     elected out of neighbour tallies over that universe, so it is
//     closed under the algorithm and every inference column stores
//     asnIDs.
//   - orgID: dense organisation id. orgOfASN maps asnID → orgID, so the
//     election's sibling pooling (§4.9) is one array load per neighbour
//     instead of a union-find walk.
type internIndex struct {
	asnOf    []inet.ASN         // asnID → ASN
	idOfASN  map[inet.ASN]int32 // ASN → asnID
	orgOfASN []int32            // asnID → orgID
	orgIDOf  map[inet.ASN]int32 // canonical ASN → orgID
	orgCount int

	baseID []int32 // addrIdx → asnID of the base mapping (-1 unannounced)
	mapID  []int32 // halfIdx → asnID of the committed mapping (-1 unannounced)

	// Flat neighbour index: for an eligible half h,
	// nbrHalf[nbrOff[h]:nbrOff[h+1]] holds one entry per member of N(h):
	// the halfIdx its mapping is read at ({n, h.Dir.Opposite()}, §3.2).
	// IXP-numbered neighbours, which count toward |N| but never toward
	// an AS (§4.4.2 fn7), are stored bit-complemented (^halfIdx, always
	// negative): elections skip every negative entry, while the §4.4.4
	// resolution can recover the half with another complement.
	// Non-eligible halves get an empty range, which doubles as the
	// eligibility test.
	nbrOff  []int32
	nbrHalf []int32

	// halvesIdx lists the eligible (|N| ≥ 2) halves in halfCmp order —
	// the add passes' scan list.
	halvesIdx []int32

	// Per-address topology for the per-pass resolution loops:
	// otherIdx[a] is the addrIdx of a's §4.2 other side (-1 when it has
	// none or the other side never appeared adjacent to anything, in
	// which case no inference can exist on it); ixpA[a] flags an
	// IXP-numbered address (by prefix or by base-mapping ASN).
	otherIdx []int32
	ixpA     []bool
}

// halfAt inverts halfIdx.
func (st *runState) halfAt(idx int32) Half {
	return Half{Addr: st.addrs[idx>>1], Dir: Direction(idx & 1)}
}

// asnAt returns the ASN of an intern id; zero (unannounced) for -1.
func (ix *internIndex) asnAt(id int32) inet.ASN {
	if id < 0 {
		return 0
	}
	return ix.asnOf[id]
}

func (st *runState) internOrg(canonical inet.ASN) int32 {
	if id, ok := st.idx.orgIDOf[canonical]; ok {
		return id
	}
	id := int32(st.idx.orgCount)
	st.idx.orgIDOf[canonical] = id
	st.idx.orgCount++
	return id
}

// buildIndex constructs the intern index once addrs, the neighbour
// sets, the IXP flags and halvesIdx are final; base holds each
// address's base mapping, aligned with addrs.
func (st *runState) buildIndex(base []inet.ASN) {
	ix := &st.idx
	n := len(st.addrs)

	// Intern the announced base-mapping universe in sorted order, so the
	// initial asnID order matches ASN order.
	seen := make(map[inet.ASN]bool)
	var universe []inet.ASN
	for _, asn := range base {
		if !asn.IsZero() && !seen[asn] {
			seen[asn] = true
			universe = append(universe, asn)
		}
	}
	slices.Sort(universe)
	ix.idOfASN = make(map[inet.ASN]int32, len(universe))
	ix.orgIDOf = make(map[inet.ASN]int32)
	for _, asn := range universe {
		ix.idOfASN[asn] = int32(len(ix.asnOf))
		ix.asnOf = append(ix.asnOf, asn)
		ix.orgOfASN = append(ix.orgOfASN, st.internOrg(st.cfg.Orgs.Canonical(asn)))
	}
	ix.baseID = make([]int32, n)
	ix.mapID = make([]int32, 2*n)
	for i, asn := range base {
		id := int32(-1)
		if !asn.IsZero() {
			id = ix.idOfASN[asn]
		}
		ix.baseID[i] = id
		ix.mapID[2*i] = id
		ix.mapID[2*i+1] = id
	}

	// Election operands: for each eligible half, one entry per member
	// of its neighbour set — the member's opposite-direction half,
	// whose mapping the election reads, bit-complemented for IXP
	// members.
	ix.nbrOff = make([]int32, 2*n+1)
	for hi := range 2 * n {
		c := st.nsOff[hi+1] - st.nsOff[hi]
		if c < 2 {
			c = 0
		}
		ix.nbrOff[hi+1] = ix.nbrOff[hi] + c
	}
	ix.nbrHalf = make([]int32, ix.nbrOff[2*n])
	for _, hi := range ix.halvesIdx {
		opp := Direction(hi & 1).Opposite()
		out := ix.nbrHalf[ix.nbrOff[hi]:ix.nbrOff[hi+1]]
		for k, nb := range st.ns(hi) {
			out[k] = halfSlot(nb, opp)
			if ix.ixpA[nb] {
				out[k] = ^out[k] // negative: no AS vote, half recoverable
			}
		}
	}

	// The inference-state columns (see state.go) and the pass buffers,
	// sized and preallocated here so pass-time work never allocates.
	st.dirConnID = make([]int32, 2*n)
	st.dirLocalID = make([]int32, 2*n)
	st.indirectSrc = make([]int32, 2*n)
	for i := range st.dirConnID {
		st.dirConnID[i] = -1
		st.dirLocalID[i] = -1
		st.indirectSrc[i] = -1
	}
	st.dirStub = make([]bool, 2*n)
	st.dirUnc = make([]bool, 2*n)
	st.ovSet = make([]bool, 2*n)
	st.severedIdx = make([]bool, n)
	st.inferredOnce = make([]bool, 2*n)
	st.directBuf = make([]int32, 0, len(ix.halvesIdx))
	st.electScr = make([]electScratch, st.cfg.workers())
	for w := range st.electScr {
		st.electScr[w].ensure(ix.orgCount, len(ix.asnOf))
	}
	st.demoteBuf = make([]int32, 0, 64)
	st.purgeBuf = make([]int32, 0, 64)
}

// electScratch is the per-worker reusable state of electNeighborAS:
// dense vote counters plus touched lists so resets cost O(distinct)
// rather than O(universe).
type electScratch struct {
	orgVotes, asnVotes       []int32
	touchedOrgs, touchedASNs []int32
}

func (sc *electScratch) ensure(orgs, asns int) {
	for len(sc.orgVotes) < orgs {
		sc.orgVotes = append(sc.orgVotes, 0)
	}
	for len(sc.asnVotes) < asns {
		sc.asnVotes = append(sc.asnVotes, 0)
	}
}

// countResult is the §4.4.1 neighbour election for one half.
type countResult struct {
	// winnerOrg is the dense id of the organisation that appears more
	// than every other; -1 when no strict plurality exists.
	winnerOrg int32
	// connected is the most frequent concrete sibling ASN within the
	// winning organisation (ties to the lowest ASN), with its intern id.
	connected   inet.ASN
	connectedID int32
	// votes is the winning organisation's address count.
	votes int
	// total is |N| (including unmapped and IXP addresses).
	total int
}

// electNeighborAS tallies the half's neighbour set under the committed
// IP2AS view: each neighbour address is looked up as its opposite-
// direction half (members of N_F are backward halves and vice versa,
// §3.2), sibling ASes pool their counts (§4.4.1), and unannounced or
// IXP addresses count toward |N| but toward no AS. The loop is a pure
// counting scan over the flat indexes — no maps, no allocation — so it
// is safe to run from many workers at once, each with its own scratch.
func (st *runState) electNeighborAS(hi int32, sc *electScratch) countResult {
	ix := &st.idx
	nbrs := ix.nbrHalf[ix.nbrOff[hi]:ix.nbrOff[hi+1]]
	res := countResult{winnerOrg: -1, connectedID: -1, total: len(nbrs)}
	if len(nbrs) == 0 {
		return res
	}
	sc.ensure(ix.orgCount, len(ix.asnOf))
	for _, ni := range nbrs {
		if ni < 0 {
			continue // IXP neighbour
		}
		aid := ix.mapID[ni]
		if aid < 0 {
			continue // unannounced
		}
		oid := ix.orgOfASN[aid]
		if sc.orgVotes[oid] == 0 {
			sc.touchedOrgs = append(sc.touchedOrgs, oid)
		}
		sc.orgVotes[oid]++
		if sc.asnVotes[aid] == 0 {
			sc.touchedASNs = append(sc.touchedASNs, aid)
		}
		sc.asnVotes[aid]++
	}
	// Strict plurality via max / second-max; order-independent, so the
	// touched list's insertion order never shows in the result.
	var bestOrg int32 = -1
	var best, second int32
	for _, oid := range sc.touchedOrgs {
		switch v := sc.orgVotes[oid]; {
		case v > best:
			second = best
			best, bestOrg = v, oid
		case v > second:
			second = v
		}
	}
	if best > 0 && best != second {
		res.winnerOrg = bestOrg
		res.votes = int(best)
		// Most frequent concrete sibling, ties to the lowest ASN.
		var bestAID int32 = -1
		var bestCnt int32
		for _, aid := range sc.touchedASNs {
			if ix.orgOfASN[aid] != bestOrg {
				continue
			}
			c := sc.asnVotes[aid]
			if c > bestCnt || (c == bestCnt && ix.asnOf[aid] < ix.asnOf[bestAID]) {
				bestAID, bestCnt = aid, c
			}
		}
		res.connected, res.connectedID = ix.asnOf[bestAID], bestAID
	}
	for _, oid := range sc.touchedOrgs {
		sc.orgVotes[oid] = 0
	}
	for _, aid := range sc.touchedASNs {
		sc.asnVotes[aid] = 0
	}
	sc.touchedOrgs = sc.touchedOrgs[:0]
	sc.touchedASNs = sc.touchedASNs[:0]
	return res
}
