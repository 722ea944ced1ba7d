package core

import (
	"slices"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

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

	// Inference state (§4.4.1): per-half columns indexed by halfIdx.
	// dirConnID[h] ≥ 0 iff h carries a direct inference, naming the
	// intern id of its connected AS (never unannounced); dirLocalID,
	// dirStub and dirUnc hold the record's local AS id (-1 when
	// unannounced), stub origin and §4.4.4 uncertain flag, and are
	// meaningful only while dirConnID[h] ≥ 0. indirectSrc[h] is the
	// halfIdx of the direct inference backing h's indirect record (-1
	// when none). ovSet[h] marks an IP2AS override in force on h, whose
	// intern id is then idx.mapID[h], the committed view elections read;
	// an override equal to the base mapping still counts, so presence
	// needs this marker. severedIdx marks the addresses whose other-side
	// pairing the divergent-other-sides rule dismissed (§4.4.3). Every
	// write goes through the funnels below, which keep hashSum in step.
	//
	// A half whose other side lies outside the interface universe owns
	// one more record, kept implicit: while it carries a direct
	// inference and is not IXP-numbered, that other side's facing half
	// holds an indirect record naming it and an override to its
	// connected AS (§4.4.2). Nothing reads those records but the §4.6
	// fingerprint, and each such other side has exactly one interface
	// partner (§4.2), so setDirect and unsetDirect account for them in
	// hashSum and no column stores them (see outsideHalf).
	dirConnID   []int32
	dirLocalID  []int32
	dirStub     []bool
	dirUnc      []bool
	indirectSrc []int32
	ovSet       []bool
	severedIdx  []bool
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
	// O(1) instead of three column walks per iteration.
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
	// which neither the state fingerprint nor the severing count moved
	// reuse the list instead of rebuilding it.
	snapHash    uint64
	snapSevered int
	snapInf     []Inference

	// Fixpoint machinery (see orgid.go): the dense intern index
	// elections run on and per-worker election scratch.
	idx      internIndex
	electScr []electScratch

	// Reusable pass buffers of directPass, removeStep and directScan.
	addShards    [][]pendingAdd
	addsBuf      []pendingAdd
	demoteShards [][]int32
	demoteBuf    []int32
	purgeBuf     []int32
	directBuf    []int32

	// auditor runs the runtime invariant audit at fixpoint step
	// boundaries; nil unless Config.Audit enabled auditing.
	auditor *runAuditor
	// stepHook, when set, observes every fixpoint step boundary before
	// the audit runs there. Tests record the §4.6 fingerprint
	// trajectory through it.
	stepHook func(stage string, iter int)

	diag Diagnostics
}

func newRunState(cfg *Config, ev *Evidence) *runState {
	st := &runState{cfg: cfg, observed: ev.AllAddrs}
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
		st.auditOtherSides()
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

// otherHalfIdx returns the halfIdx of the opposite-direction half of
// hi's other side, the half that shares its link and looks the same way
// along it (§3.2), when that other side is an interface and the
// pairing stands.
func (st *runState) otherHalfIdx(hi int32) (int32, bool) {
	ai := hi >> 1
	oi := st.idx.otherIdx[ai]
	if oi < 0 || st.severedIdx[ai] {
		return -1, false
	}
	return halfSlot(oi, Direction(hi&1).Opposite()), true
}

// outsideHalf returns the half that carries hi's implicit other-side
// records (see runState): the facing half of hi's other side when that
// other side lies outside the interface universe and hi is not
// IXP-numbered. Such a pairing is never severed, because severing needs
// both addresses indexed, so the answer never changes during a run.
func (st *runState) outsideHalf(hi int32) (Half, bool) {
	ai := hi >> 1
	if !st.hasOther[ai] || st.idx.otherIdx[ai] >= 0 || st.idx.ixpA[ai] {
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

// directHash is the fingerprint share of hi's direct inference: its own
// entry plus, when hi has an outside other side, that half's implicit
// indirect record and override.
func (st *runState) directHash(hi int32) uint64 {
	h := st.halfAt(hi)
	conn := uint32(st.idx.asnOf[st.dirConnID[hi]])
	sum := entryHash(directTag(st.dirUnc[hi]), h, conn)
	if oh, ok := st.outsideHalf(hi); ok {
		sum += entryHash(3, oh, uint32(h.Addr)) + entryHash(4, oh, conn)
	}
	return sum
}

// setDirect commits a direct inference on hi, which must carry none.
// connID and localID are the intern ids of the connected and local
// ASes (localID -1 when unannounced).
func (st *runState) setDirect(hi, connID, localID int32, stub bool) {
	st.dirConnID[hi], st.dirLocalID[hi] = connID, localID
	st.dirStub[hi], st.dirUnc[hi] = stub, false
	st.hashSum += st.directHash(hi)
}

// unsetDirect removes hi's direct inference, if any.
func (st *runState) unsetDirect(hi int32) {
	if st.dirConnID[hi] < 0 {
		return
	}
	st.hashSum -= st.directHash(hi)
	st.dirConnID[hi] = -1
}

// setUncertain sets the §4.4.4 uncertain flag on hi's direct
// inference. No-op when the flag is already set.
func (st *runState) setUncertain(hi int32) {
	if st.dirUnc[hi] {
		return
	}
	st.hashSum -= st.directHash(hi)
	st.dirUnc[hi] = true
	st.hashSum += st.directHash(hi)
}

// indirectHash fingerprints hi's indirect record backed by src.
func (st *runState) indirectHash(hi, src int32) uint64 {
	return entryHash(3, st.halfAt(hi), uint32(st.addrs[src>>1]))
}

// setIndirect records that hi's indirect inference is backed by the
// direct inference on src.
func (st *runState) setIndirect(hi, src int32) {
	old := st.indirectSrc[hi]
	if old == src {
		return
	}
	if old >= 0 {
		st.hashSum -= st.indirectHash(hi, old)
	}
	st.hashSum += st.indirectHash(hi, src)
	st.indirectSrc[hi] = src
}

func (st *runState) unsetIndirect(hi int32) {
	if old := st.indirectSrc[hi]; old >= 0 {
		st.hashSum -= st.indirectHash(hi, old)
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

// recomputeOverride re-derives the committed override for hi from its
// surviving inference records: its own direct inference, else the direct
// inference on its other side that made it indirect, else — under the
// WholeInterfaceUpdates ablation, whose commits mirror every direct
// update onto the opposite half — the direct inference on its opposite
// half. With no surviving source the override is cleared.
func (st *runState) recomputeOverride(hi int32) {
	if c := st.dirConnID[hi]; c >= 0 {
		st.setOverride(hi, c)
		return
	}
	if src := st.indirectSrc[hi]; src >= 0 && st.dirConnID[src] >= 0 {
		st.setOverride(hi, st.dirConnID[src])
		return
	}
	if c := st.dirConnID[hi^1]; c >= 0 && st.cfg.WholeInterfaceUpdates {
		st.setOverride(hi, c)
		return
	}
	st.clearOverride(hi)
}

// discardDirect removes a direct inference and everything hanging off it:
// its IP2AS update, the indirect inference it induced on its other side
// (§4.4.2: "If the associated direct inference is discarded, the
// indirect inference is also discarded"), and — under the ablation that
// mirrors updates onto whole interfaces — the opposite half's mirrored
// override.
func (st *runState) discardDirect(hi int32) {
	if st.dirConnID[hi] < 0 {
		return
	}
	st.unsetDirect(hi)
	st.recomputeOverride(hi)
	if st.cfg.WholeInterfaceUpdates {
		st.recomputeOverride(hi ^ 1)
	}
	if oh, ok := st.otherHalfIdx(hi); ok && st.indirectSrc[oh] == hi {
		st.unsetIndirect(oh)
		st.recomputeOverride(oh)
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

// stateHashRecompute rebuilds the fingerprint from the columns. Test
// and audit hook: asserting it equals stateHash() proves every mutation
// path kept hashSum in step.
func (st *runState) stateHashRecompute() uint64 {
	var sum uint64
	for hi := range int32(len(st.dirConnID)) {
		if st.dirConnID[hi] >= 0 {
			sum += st.directHash(hi)
		}
		if src := st.indirectSrc[hi]; src >= 0 {
			sum += st.indirectHash(hi, src)
		}
		if st.ovSet[hi] {
			sum += st.overrideHash(hi, st.idx.mapID[hi])
		}
	}
	return sum
}

// result builds the output snapshot from the current state. Scanning
// the columns in halfIdx order visits the direct inferences in halfCmp
// order.
func (st *runState) result() *Result {
	ix := &st.idx
	n := 0
	for _, c := range st.dirConnID {
		if c >= 0 {
			n++
		}
	}
	out := make([]Inference, 0, 2*n)
	for hi, connID := range st.dirConnID {
		if connID < 0 {
			continue
		}
		h := st.halfAt(int32(hi))
		ai := hi >> 1
		inf := Inference{
			Addr:      h.Addr,
			Dir:       h.Dir,
			Local:     ix.asnAt(st.dirLocalID[hi]),
			Connected: ix.asnOf[connID],
			OtherSide: st.otherA[ai],
			Uncertain: st.dirUnc[hi],
			Stub:      st.dirStub[hi],
		}
		out = append(out, inf)
		// The far side of the link is also an inter-AS link interface
		// connecting the same pair (§3.1, §4.4.2) — emit it as an
		// indirect record unless it carries its own direct inference.
		// Putative other sides that never appeared in any trace are
		// internal bookkeeping only: with the /30-vs-/31 heuristic
		// unconfirmed there is no observed interface to report. Each
		// other side has one partner (§4.2), so none is emitted twice.
		if !st.hasOther[ai] || st.severedIdx[ai] || ix.ixpA[ai] || !st.observed.Contains(inf.OtherSide) {
			continue
		}
		if oh, ok := st.otherHalfIdx(int32(hi)); ok && st.dirConnID[oh] >= 0 {
			continue
		}
		out = append(out, Inference{
			Addr:      inf.OtherSide,
			Dir:       h.Dir.Opposite(),
			Local:     inf.Connected,
			Connected: inf.Local,
			OtherSide: h.Addr,
			Uncertain: inf.Uncertain,
			Stub:      inf.Stub,
			Indirect:  true,
		})
	}
	slices.SortFunc(out, inferenceCmp)
	return &Result{Diag: st.diag, Inferences: out}
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
