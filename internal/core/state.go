package core

import (
	"slices"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// directInf is a direct inference record on one half (§4.4.1).
type directInf struct {
	local     inet.ASN // committed mapping of the half when inferred
	connected inet.ASN // AS_N
	// connectedID and localID are the intern ids of connected and local
	// (see internIndex; localID is -1 when unannounced), captured at
	// inference time so the §4.5 retention check and the §4.4.3/§4.4.4
	// resolutions compare dense org ids instead of walking the
	// union-find.
	connectedID int32
	localID     int32
	uncertain   bool
	stub        bool
}

// runState is the full mutable state of a MAP-IT run.
type runState struct {
	cfg *Config

	// Immutable after build. Every interface address (one with a
	// neighbour on either side) is identified by its index in the
	// sorted addrs slice, its addrIdx; the per-address inputs below and
	// in idx are slices aligned with it.
	observed inet.AddrSet // every address seen in any trace
	addrs    []inet.Addr
	// nsOff/nsIDs hold the §4.3 neighbour sets as CSR rows keyed by
	// halfIdx: N(hi) is nsIDs[nsOff[hi]:nsOff[hi+1]], the addrIdxs of
	// its members in ascending order (N_F on forward halves, N_B on
	// backward ones).
	nsOff []int32
	nsIDs []int32
	// otherA[a] is addrs[a]'s §4.2 other side, defined iff hasOther[a]:
	// only observed addresses are paired. A flag rather than a zero
	// sentinel, because 0.0.0.0 is a valid other side (of 0.0.0.1).
	otherA   []inet.Addr
	hasOther []bool

	// Inference state. overrides is the committed per-half IP2AS view;
	// mutations during a pass are buffered and applied at pass end so
	// every pass reads the previous pass's state (§4.4.5).
	direct    map[Half]*directInf
	indirect  map[Half]Half // half with indirect inference -> source half
	overrides map[Half]inet.ASN
	// severed marks addresses whose other-side pairing was dismissed as
	// incorrect by the divergent-other-sides rule (§4.4.3).
	severed map[inet.Addr]bool
	// inferredOnce suppresses re-inference on a half within one add
	// step: a direct inference can only be made once per add step,
	// which is what makes the add step converge (§4.4.5). Indexed by
	// halfIdx (inferences only ever land on eligible, indexed halves);
	// cleared by resetInferredOnce at the start of every iteration.
	inferredOnce []bool

	// hashSum is the §4.6 state fingerprint, maintained incrementally:
	// an order-independent sum (mod 2^64) of one strong per-entry hash
	// for every direct inference, indirect association, and override.
	// Addition forms a group, so every state-mutating funnel subtracts
	// the entry hash it replaces and adds the new one, and stateHash is
	// O(1) instead of three sorted map walks per iteration.
	// stateHashRecompute rebuilds it from scratch for verification.
	hashSum uint64

	// seenSet indexes the visited fingerprints for the §4.6 stopping
	// rule's O(1) membership test, so the rule costs O(iterations)
	// total instead of O(iterations²) when MaxIterations is raised for
	// long-running sweeps. Reused across fixpoint calls on one state.
	// (The visit-order slice that once shadowed it is gone: nothing
	// read it — membership is the whole test.)
	seenSet map[uint64]struct{}

	// snapHash/snapSevered/snapInf memoise the last stage snapshot's
	// inference list (see StageSnapshot): consecutive hooks between
	// which neither the state fingerprint nor the severed set moved
	// reuse the list instead of rebuilding it.
	snapHash    uint64
	snapSevered int
	snapInf     []Inference

	// Fixpoint machinery (see orgid.go): the dense intern index
	// elections run on and per-worker election scratch.
	idx      internIndex
	electScr []electScratch

	// Flat mirrors of the inference state above, indexed by halfIdx and
	// kept in lockstep by the setDirect/unsetDirect and
	// setIndirect/unsetIndirect funnels, so the per-pass scan and
	// resolution loops read arrays instead of hashing Half keys.
	// dirConnID[h] ≥ 0 iff h carries a direct inference (connected is
	// never unannounced); dirLocalID/dirStub/dirUnc mirror the record's
	// other fields. indirectSrc[h] is the halfIdx of the direct
	// inference backing h's indirect record (-1 when none; source
	// halves are always indexed even when the indirect key is not).
	// severedIdx mirrors st.severed by addrIdx.
	dirConnID   []int32
	dirLocalID  []int32
	dirStub     []bool
	dirUnc      []bool
	indirectSrc []int32
	severedIdx  []bool

	// Reusable pass buffers of directPass, removeStep and directScan.
	addShards    [][]pendingAdd
	addsBuf      []pendingAdd
	demoteShards [][]int32
	demoteBuf    []int32
	purgeBuf     []Half
	directBuf    []int32

	// infBlock is the live slab directInf records are carved from:
	// commits take the next slot instead of boxing a record per add,
	// which was the dominant in-fixpoint allocation. Records removed by
	// the remove step or resolutions are simply abandoned in place —
	// the waste is bounded by the total adds of one run, and the whole
	// slab dies with the runState.
	infBlock []directInf

	// auditor runs the runtime invariant audit at fixpoint step
	// boundaries; nil unless Config.Audit enabled auditing.
	auditor *runAuditor

	diag Diagnostics
}

// infSlabBlock is the slab granularity: appends never move live
// records because a full block is retired and a fresh one started.
const infSlabBlock = 512

// newDirectInf copies d into the slab and returns a stable pointer.
func (st *runState) newDirectInf(d directInf) *directInf {
	if len(st.infBlock) == cap(st.infBlock) {
		st.infBlock = make([]directInf, 0, infSlabBlock)
	}
	st.infBlock = append(st.infBlock, d)
	return &st.infBlock[len(st.infBlock)-1]
}

func newRunState(cfg *Config, ev *Evidence) *runState {
	st := &runState{
		cfg:       cfg,
		observed:  ev.AllAddrs,
		direct:    make(map[Half]*directInf),
		indirect:  make(map[Half]Half),
		overrides: make(map[Half]inet.ASN),
		severed:   make(map[inet.Addr]bool),
	}
	adjs := canonicalAdjacencies(ev.Adjacencies)

	// Interface ids: every adjacency endpoint, in address order. The
	// first endpoints arrive sorted; the second ones are sorted once,
	// tagged with their adjacency index, and a single merge of the two
	// streams lists the addresses and gives every endpoint its id.
	keys := make([]uint64, len(adjs))
	for k, adj := range adjs {
		keys[k] = uint64(adj.Second)<<32 | uint64(k)
	}
	slices.Sort(keys)
	first := make([]int32, len(adjs))
	second := make([]int32, len(adjs))
	st.addrs = make([]inet.Addr, 0, len(adjs))
	for i, j := 0, 0; i < len(adjs) || j < len(keys); {
		var a inet.Addr
		fromFirst := j == len(keys) || (i < len(adjs) && adjs[i].First <= inet.Addr(keys[j]>>32))
		if fromFirst {
			a = adjs[i].First
		} else {
			a = inet.Addr(keys[j] >> 32)
		}
		if len(st.addrs) == 0 || st.addrs[len(st.addrs)-1] != a {
			st.addrs = append(st.addrs, a)
		}
		if id := int32(len(st.addrs) - 1); fromFirst {
			first[i] = id
			i++
		} else {
			second[uint32(keys[j])] = id
			j++
		}
	}
	n := int32(len(st.addrs))
	st.diag.Interfaces = int(n)

	// Neighbour sets (§4.3) as CSR rows: one stable counting sort of the
	// adjacencies on half index. The adjacencies are sorted by (First,
	// Second), so each forward row comes out sorted by Second and each
	// backward row by First, with no per-row sort.
	st.nsOff = make([]int32, 2*n+1)
	for k := range adjs {
		st.nsOff[halfSlot(first[k], Forward)+1]++
		st.nsOff[halfSlot(second[k], Backward)+1]++
	}
	for hi := range 2 * n {
		st.nsOff[hi+1] += st.nsOff[hi]
	}
	st.nsIDs = make([]int32, 2*len(adjs))
	next := slices.Clone(st.nsOff[:2*n])
	for k := range adjs {
		f, b := halfSlot(first[k], Forward), halfSlot(second[k], Backward)
		st.nsIDs[next[f]] = second[k]
		st.nsIDs[next[b]] = first[k]
		next[f]++
		next[b]++
	}

	// Base mapping, IXP flag and §4.2 other side, resolved once per id.
	// The lookup sources are frozen by RunEvidence and the per-address
	// work is pure, so it shards over disjoint ranges of the id-aligned
	// slices with no locking. Only observed addresses get an other side.
	ix := &st.idx
	base := make([]inet.ASN, n)
	ix.ixpA = make([]bool, n)
	ix.otherIdx = make([]int32, n)
	st.otherA = make([]inet.Addr, n)
	st.hasOther = make([]bool, n)
	parallelChunks(int(n), cfg.workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := st.addrs[i]
			base[i], _ = cfg.IP2AS.Lookup(a)
			ix.ixpA[i] = cfg.IXP.IsIXPAddr(a) || cfg.IXP.IsIXPASN(base[i])
			ix.otherIdx[i] = -1
			if !ev.AllAddrs.Contains(a) {
				continue
			}
			o := inet.InferOtherSide(a, ev.AllAddrs).Other
			st.otherA[i], st.hasOther[i] = o, true
			// An other side differs from its address by one (a^1, or
			// a^3 of a /30 host), so its id, if any, is adjacent.
			for _, j := range [2]int{i - 1, i + 1} {
				if j >= 0 && j < int(n) && st.addrs[j] == o {
					ix.otherIdx[i] = int32(j)
				}
			}
		}
	})
	st.diag.Slash31Fraction = inet.Slash31Fraction(ev.AllAddrs)

	// Eligible halves (|N| ≥ 2) in halfIdx order, which is halfCmp
	// order, and the both-Ns overlap statistic.
	for i := range n {
		f, b := st.ns(halfSlot(i, Forward)), st.ns(halfSlot(i, Backward))
		if len(f) >= 2 {
			ix.halvesIdx = append(ix.halvesIdx, halfSlot(i, Forward))
			st.diag.EligibleForward++
		}
		if len(b) >= 2 {
			ix.halvesIdx = append(ix.halvesIdx, halfSlot(i, Backward))
			st.diag.EligibleBackward++
		}
		if sortedIntersect(f, b) {
			st.diag.BothNsOverlap++
		}
	}
	st.buildIndex(base)
	if cfg.Audit.Enabled() {
		st.auditor = newRunAuditor(cfg.Audit)
	}
	return st
}

// canonicalAdjacencies returns adjs sorted by (First, Second) without
// duplicates, the order every collector produces. Evidence built by
// hand in another order is sorted into a copy.
func canonicalAdjacencies(adjs []trace.Adjacency) []trace.Adjacency {
	for k := 1; k < len(adjs); k++ {
		if adjacencyCmp(adjs[k-1], adjs[k]) >= 0 {
			out := slices.Clone(adjs)
			slices.SortFunc(out, adjacencyCmp)
			return slices.Compact(out)
		}
	}
	return adjs
}

func sortedIntersect(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// ns returns the neighbour set of half hi as addrIdxs.
func (st *runState) ns(hi int32) []int32 {
	return st.nsIDs[st.nsOff[hi]:st.nsOff[hi+1]]
}

// mapping returns the committed IP2AS view of half hi: override if one
// is in force, otherwise the base BGP mapping. Zero means unannounced.
func (st *runState) mapping(hi int32) inet.ASN {
	if asn, ok := st.overrides[st.halfAt(hi)]; ok {
		return asn
	}
	return st.idx.asnAt(st.idx.baseID[hi>>1])
}

// otherHalf returns the opposite-direction half of the other side of
// half hi: the half that shares its link and looks the same way along
// it (§3.2). The other side may lie outside the interface universe.
func (st *runState) otherHalf(hi int32) (Half, bool) {
	ai := hi >> 1
	if !st.hasOther[ai] || st.severedIdx[ai] {
		return Half{}, false
	}
	return Half{Addr: st.otherA[ai], Dir: Direction(hi & 1).Opposite()}, true
}

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output bits all depend on all input bits. Composing two rounds over
// the packed entry fields gives each (tag, half, payload) tuple an
// effectively independent 64-bit hash, which is what makes the
// order-independent sum in hashSum collision-safe in practice.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entryHash fingerprints one state entry for hashSum. Tags keep the
// three record kinds (and the uncertain flag on direct inferences)
// from colliding: 1 = direct, 2 = direct uncertain, 3 = indirect
// (payload is the source address), 4 = override (payload is the ASN).
func entryHash(tag byte, h Half, payload uint32) uint64 {
	k := uint64(h.Addr)<<2 | uint64(h.Dir)<<1 | uint64(tag)<<40
	return mix64(mix64(k) + uint64(payload)*0x9e3779b97f4a7c15)
}

func directTag(uncertain bool) byte {
	if uncertain {
		return 2
	}
	return 1
}

// setDirect commits a direct inference, keeping the Half-keyed map
// (which holds the records the result reports), the flat mirrors
// (what the scan and resolution loops read), and the hashSum
// fingerprint in lockstep. hi must be h's halfIdx; every inference
// lands on an indexed half (an eligible one, or a §4.8 stub candidate).
func (st *runState) setDirect(h Half, hi int32, d *directInf) {
	if old, ok := st.direct[h]; ok {
		st.hashSum -= entryHash(directTag(old.uncertain), h, uint32(old.connected))
	}
	st.hashSum += entryHash(directTag(d.uncertain), h, uint32(d.connected))
	st.direct[h] = d
	st.dirConnID[hi] = d.connectedID
	st.dirLocalID[hi] = d.localID
	st.dirStub[hi] = d.stub
	st.dirUnc[hi] = d.uncertain
}

// unsetDirectIdx removes h's direct inference from the map and the
// mirrors; hi is h's halfIdx.
func (st *runState) unsetDirectIdx(h Half, hi int32) {
	old, ok := st.direct[h]
	if !ok {
		return
	}
	st.hashSum -= entryHash(directTag(old.uncertain), h, uint32(old.connected))
	delete(st.direct, h)
	if hi >= 0 {
		st.dirConnID[hi] = -1
		st.dirLocalID[hi] = -1
		st.dirStub[hi] = false
		st.dirUnc[hi] = false
	}
}

// setUncertain flips the §4.4.4 uncertain flag on hi's direct record,
// keeping the mirror and the fingerprint consistent. No-op when the
// flag is already set.
func (st *runState) setUncertain(hi int32) {
	if st.dirUnc[hi] {
		return
	}
	h := st.halfAt(hi)
	d := st.direct[h]
	st.hashSum -= entryHash(directTag(false), h, uint32(d.connected))
	st.hashSum += entryHash(directTag(true), h, uint32(d.connected))
	d.uncertain = true
	st.dirUnc[hi] = true
}

// setIndirect records an indirect inference association. The key half
// may be unindexed (a putative other side never seen adjacent to
// anything); the source is always an indexed direct-inference half.
func (st *runState) setIndirect(h, src Half) {
	st.setIndirectIdx(h, st.halfIdx(h), src, st.halfIdx(src))
}

// setIndirectIdx is setIndirect for callers that already hold the two
// half indexes (hi may be -1 for an unindexed key).
func (st *runState) setIndirectIdx(h Half, hi int32, src Half, srcIdx int32) {
	if old, ok := st.indirect[h]; ok {
		if old == src {
			return
		}
		st.hashSum -= entryHash(3, h, uint32(old.Addr))
	}
	st.hashSum += entryHash(3, h, uint32(src.Addr))
	st.indirect[h] = src
	if hi >= 0 {
		st.indirectSrc[hi] = srcIdx
	}
}

func (st *runState) unsetIndirect(h Half) {
	old, ok := st.indirect[h]
	if !ok {
		return
	}
	st.hashSum -= entryHash(3, h, uint32(old.Addr))
	delete(st.indirect, h)
	if hi := st.halfIdx(h); hi >= 0 {
		st.indirectSrc[hi] = -1
	}
}

// directScan returns the eligible halves carrying direct inferences in
// halfCmp order — the iteration base of the §4.4.3/§4.4.4 resolutions
// and of every remove pass — filtered out of halvesIdx into a buffer
// reused across calls, so each call overwrites the previous result.
// Inside the fixpoint only directPass creates direct inferences, and it
// scans halvesIdx, so the list is complete there; the §4.8 stub
// inferences, which sit on non-eligible halves, are made after the loop.
func (st *runState) directScan() []int32 {
	out := st.directBuf[:0]
	for _, hi := range st.idx.halvesIdx {
		if st.dirConnID[hi] >= 0 {
			out = append(out, hi)
		}
	}
	st.directBuf = out
	return out
}

// resetInferredOnce clears the once-per-add-step latch (§4.4.5); called
// at the top of every outer iteration.
func (st *runState) resetInferredOnce() {
	clear(st.inferredOnce)
}

// hasInferenceIdx reports whether half hi carries any inference record:
// a direct inference, or an indirect one whose source still stands.
func (st *runState) hasInferenceIdx(hi int32) bool {
	if st.dirConnID[hi] >= 0 {
		return true
	}
	src := st.indirectSrc[hi]
	return src >= 0 && st.dirConnID[src] >= 0
}

// recomputeOverride re-derives the committed override for h from its
// surviving inference records: its own direct inference, else the direct
// inference on its other side that made it indirect, else — under the
// WholeInterfaceUpdates ablation, whose commits mirror every direct
// update onto the opposite half — the direct inference on its opposite
// half. With no surviving source the override is cleared.
func (st *runState) recomputeOverride(h Half) {
	if d, ok := st.direct[h]; ok {
		st.setOverride(h, d.connected)
		return
	}
	if src, ok := st.indirect[h]; ok {
		if d, ok := st.direct[src]; ok {
			st.setOverride(h, d.connected)
			return
		}
	}
	if st.cfg.WholeInterfaceUpdates {
		if d, ok := st.direct[h.Opposite()]; ok {
			st.setOverride(h, d.connected)
			return
		}
	}
	st.clearOverride(h)
}

// discardDirect removes a direct inference and everything hanging off it:
// its IP2AS update, the indirect inference it induced on its other side
// (§4.4.2: "If the associated direct inference is discarded, the
// indirect inference is also discarded"), and — under the ablation that
// mirrors updates onto whole interfaces — the opposite half's mirrored
// override.
func (st *runState) discardDirect(hi int32) {
	h := st.halfAt(hi)
	if _, ok := st.direct[h]; !ok {
		return
	}
	st.unsetDirectIdx(h, hi)
	st.recomputeOverride(h)
	if st.cfg.WholeInterfaceUpdates {
		st.recomputeOverride(h.Opposite())
	}
	if oh, ok := st.otherHalf(hi); ok {
		if src, ok := st.indirect[oh]; ok && src == h {
			st.unsetIndirect(oh)
			st.recomputeOverride(oh)
		}
	}
}

// stateHash fingerprints the full inference state for the §4.6
// repeated-state stopping rule. The fingerprint is maintained by the
// mutation funnels (see hashSum), so reading it is free; the sum is
// order-independent, so serial and sharded runs — which commit in the
// same order anyway — agree exactly.
func (st *runState) stateHash() uint64 {
	return st.hashSum
}

// stateHashRecompute rebuilds the fingerprint from the authoritative
// maps. Test hook: asserting it equals stateHash() after a run proves
// every mutation path kept hashSum in lockstep.
func (st *runState) stateHashRecompute() uint64 {
	var sum uint64
	for h, d := range st.direct {
		sum += entryHash(directTag(d.uncertain), h, uint32(d.connected))
	}
	for h, src := range st.indirect {
		sum += entryHash(3, h, uint32(src.Addr))
	}
	for h, asn := range st.overrides {
		sum += entryHash(4, h, uint32(asn))
	}
	return sum
}

// result builds the output snapshot from the current state. Direct
// inferences only ever land on indexed halves, so scanning the mirror
// in halfIdx order visits them in halfCmp order.
func (st *runState) result() *Result {
	r := &Result{Diag: st.diag}
	out := make([]Inference, 0, len(st.direct)*2)
	indirectSeen := make(map[Half]bool)
	for hi, connID := range st.dirConnID {
		if connID < 0 {
			continue
		}
		h := st.halfAt(int32(hi))
		ai := hi >> 1
		d := st.direct[h]
		inf := Inference{
			Addr:      h.Addr,
			Dir:       h.Dir,
			Local:     d.local,
			Connected: d.connected,
			OtherSide: st.otherA[ai],
			Uncertain: d.uncertain,
			Stub:      d.stub,
		}
		out = append(out, inf)
		// The far side of the link is also an inter-AS link interface
		// connecting the same pair (§3.1, §4.4.2) — emit it as an
		// indirect record unless it carries its own direct inference.
		// Putative other sides that never appeared in any trace are
		// internal bookkeeping only: with the /30-vs-/31 heuristic
		// unconfirmed there is no observed interface to report.
		if oh, ok := st.otherHalf(int32(hi)); ok && st.observed.Contains(oh.Addr) {
			if _, hasDirect := st.direct[oh]; !hasDirect && !indirectSeen[oh] && !st.idx.ixpA[ai] {
				indirectSeen[oh] = true
				out = append(out, Inference{
					Addr:      oh.Addr,
					Dir:       oh.Dir,
					Local:     d.connected,
					Connected: d.local,
					OtherSide: h.Addr,
					Uncertain: d.uncertain,
					Stub:      d.stub,
					Indirect:  true,
				})
			}
		}
	}
	slices.SortFunc(out, inferenceCmp)
	r.Inferences = out
	return r
}

// inferenceCmp is the output order of Result.Inferences: by half, the
// direct record before its indirect counterpart.
func inferenceCmp(a, b Inference) int {
	if c := halfCmp(Half{Addr: a.Addr, Dir: a.Dir}, Half{Addr: b.Addr, Dir: b.Dir}); c != 0 {
		return c
	}
	switch {
	case a.Indirect == b.Indirect:
		return 0
	case b.Indirect:
		return -1
	default:
		return 1
	}
}
