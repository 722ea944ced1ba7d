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
//   - asnID: index into asnOf. The initial universe is every distinct
//     announced base mapping; committed overrides only ever carry ASNs
//     elected out of neighbour tallies over that universe, so the
//     interner is closed under the algorithm (internASN still appends
//     defensively, in deterministic commit order).
//   - orgID: dense organisation id. orgOfASN maps asnID → orgID, so the
//     election's sibling pooling (§4.9) is one array load per neighbour
//     instead of a union-find walk.
type internIndex struct {
	idxOfAddr map[inet.Addr]int32
	asnOf     []inet.ASN         // asnID → ASN
	idOfASN   map[inet.ASN]int32 // ASN → asnID
	orgOfASN  []int32            // asnID → orgID
	orgIDOf   map[inet.ASN]int32 // canonical ASN → orgID
	orgCount  int

	baseID []int32 // addrIdx → asnID of the base mapping (-1 unannounced)
	mapID  []int32 // halfIdx → asnID of the committed mapping (-1 unannounced)

	// Flat neighbour index: for an eligible half h,
	// nbrFlat[nbrOff[h]:nbrOff[h+1]] holds one entry per member of N(h):
	// the halfIdx its mapping is read at ({n, h.Dir.Opposite()}, §3.2).
	// IXP-numbered neighbours, which count toward |N| but never toward
	// an AS (§4.4.2 fn7), are stored bit-complemented (^halfIdx, always
	// negative): elections skip every negative entry, while the §4.4.4
	// resolution can recover the half with another complement.
	// Non-eligible halves get an empty range, which doubles as the
	// eligibility test.
	nbrOff  []int32
	nbrFlat []int32

	// halvesIdx is st.halves as half indexes — the add passes' scan list.
	halvesIdx []int32

	// Flat topology mirrors for the per-pass resolution loops:
	// otherIdx[a] is the addrIdx of a's §4.2 other side (-1 when it has
	// none or the other side never appeared adjacent to anything, in
	// which case no inference can exist on it); ixpA[a] mirrors
	// st.ixpAddr; soleFwdNbr[a] is the addrIdx of the single member of
	// N_F(a) when |N_F(a)| == 1 — the §4.8 stub candidate precondition —
	// and -1 otherwise.
	otherIdx   []int32
	ixpA       []bool
	soleFwdNbr []int32
}

// halfIdx returns h's dense index, or -1 when h's address is outside the
// interface universe (putative other sides never seen adjacent to
// anything). Such halves can hold overrides, but no election ever reads
// them.
func (st *runState) halfIdx(h Half) int32 {
	i, ok := st.idx.idxOfAddr[h.Addr]
	if !ok {
		return -1
	}
	return halfSlot(i, h.Dir)
}

// halfAt inverts halfIdx.
func (st *runState) halfAt(idx int32) Half {
	return Half{Addr: st.addrs[idx>>1], Dir: Direction(idx & 1)}
}

// internASN returns the dense id for asn, appending a new one (and its
// organisation) if unseen. Appends only happen from serial commit code,
// in deterministic order.
func (st *runState) internASN(asn inet.ASN) int32 {
	if asn.IsZero() {
		return -1
	}
	if id, ok := st.idx.idOfASN[asn]; ok {
		return id
	}
	id := int32(len(st.idx.asnOf))
	st.idx.asnOf = append(st.idx.asnOf, asn)
	st.idx.idOfASN[asn] = id
	st.idx.orgOfASN = append(st.idx.orgOfASN, st.internOrg(st.cfg.Orgs.Canonical(asn)))
	return id
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

// buildIndex constructs the intern index after addrs, neighbour sets,
// base mappings, and IXP flags are final. The neighbour flattening is
// pure per-address work, so it shards across workers into per-chunk
// partials concatenated in chunk order.
func (st *runState) buildIndex() {
	ix := &st.idx
	n := len(st.addrs)
	ix.idxOfAddr = make(map[inet.Addr]int32, n)
	for i, a := range st.addrs {
		ix.idxOfAddr[a] = int32(i)
	}

	// Intern the announced base-mapping universe in sorted order, so the
	// initial asnID order matches ASN order.
	ix.idOfASN = make(map[inet.ASN]int32)
	ix.orgIDOf = make(map[inet.ASN]int32)
	seen := make(map[inet.ASN]bool, len(st.baseAS))
	for _, asn := range st.baseAS {
		if !asn.IsZero() {
			seen[asn] = true
		}
	}
	universe := make([]inet.ASN, 0, len(seen))
	for asn := range seen {
		universe = append(universe, asn)
	}
	slices.Sort(universe)
	for _, asn := range universe {
		st.internASN(asn)
	}

	ix.baseID = make([]int32, n)
	ix.mapID = make([]int32, 2*n)
	for i, a := range st.addrs {
		id := int32(-1)
		if asn := st.baseAS[a]; !asn.IsZero() {
			id = ix.idOfASN[asn]
		}
		ix.baseID[i] = id
		ix.mapID[2*i] = id
		ix.mapID[2*i+1] = id
	}

	// Flatten neighbour lists. For half (a, d) the list is N_F(a)
	// forward, N_B(a) backward; each member is recorded as its
	// opposite-direction half, whose mapping the election reads.
	workers := st.cfg.workers()
	ix.otherIdx = make([]int32, n)
	ix.ixpA = make([]bool, n)
	ix.soleFwdNbr = make([]int32, n)
	for i := range ix.otherIdx {
		ix.otherIdx[i] = -1
		ix.soleFwdNbr[i] = -1
	}
	type part struct {
		nbrFlat []int32
		nbrCnt  []int32 // per half within the chunk
	}
	parts := make([]part, numChunks(n, workers))
	parallelChunks(n, workers, func(w, lo, hi int) {
		p := &parts[w]
		p.nbrCnt = make([]int32, 2*(hi-lo))
		for i := lo; i < hi; i++ {
			a := st.addrs[i]
			ix.ixpA[i] = st.ixpAddr[a]
			if o, ok := st.otherSide[a]; ok {
				if oi, ok := ix.idxOfAddr[o]; ok {
					ix.otherIdx[i] = oi
				}
			}
			for _, d := range [2]Direction{Forward, Backward} {
				var nbrs []inet.Addr
				if d == Forward {
					nbrs = st.nbrF[a]
				} else {
					nbrs = st.nbrB[a]
				}
				slot := 2*(i-lo) + int(d)
				if len(nbrs) >= 2 { // eligible: election operand
					for _, nb := range nbrs {
						ni := halfSlot(ix.idxOfAddr[nb], d.Opposite())
						if st.ixpAddr[nb] {
							ni = ^ni // negative: no AS vote, half recoverable
						}
						p.nbrFlat = append(p.nbrFlat, ni)
					}
					p.nbrCnt[slot] = int32(len(nbrs))
				}
				if d == Forward && len(nbrs) == 1 {
					ix.soleFwdNbr[i] = ix.idxOfAddr[nbrs[0]]
				}
			}
		}
	})
	totalNbr := 0
	for _, p := range parts {
		totalNbr += len(p.nbrFlat)
	}
	ix.nbrOff = make([]int32, 2*n+1)
	ix.nbrFlat = make([]int32, 0, totalNbr)
	slot := 0
	for _, p := range parts {
		for _, c := range p.nbrCnt {
			ix.nbrOff[slot+1] = ix.nbrOff[slot] + c
			slot++
		}
		ix.nbrFlat = append(ix.nbrFlat, p.nbrFlat...)
	}

	ix.halvesIdx = make([]int32, len(st.halves))
	for i, h := range st.halves {
		ix.halvesIdx[i] = halfSlot(ix.idxOfAddr[h.Addr], h.Dir)
	}

	// Mutable flat mirrors of the inference state (see state.go) and the
	// pass buffers, sized and preallocated here so pass-time work never
	// allocates.
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
	st.severedIdx = make([]bool, n)
	st.inferredOnce = make([]bool, 2*n)
	st.directBuf = make([]int32, 0, len(st.halves))
	st.electScr = make([]electScratch, workers)
	for w := range st.electScr {
		st.electScr[w].ensure(ix.orgCount, len(ix.asnOf))
	}
	st.infBlock = make([]directInf, 0, infSlabBlock)
	st.demoteBuf = make([]int32, 0, 64)
	st.purgeBuf = make([]Half, 0, 64)
	// Re-make the inference maps with real capacity now that the
	// eligible-half count is known: direct inferences land only on
	// eligible halves, and overrides track inferences plus their other
	// sides. Sizing up front keeps incremental rehashes out of the
	// fixpoint loop.
	st.direct = make(map[Half]*directInf, len(st.halves)/2+16)
	st.indirect = make(map[Half]Half, len(st.halves)/2+16)
	st.overrides = make(map[Half]inet.ASN, len(st.halves)+16)
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
	nbrs := ix.nbrFlat[ix.nbrOff[hi]:ix.nbrOff[hi+1]]
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
