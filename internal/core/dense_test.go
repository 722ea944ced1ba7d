package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mapit/internal/as2org"
	"mapit/internal/inet"
	"mapit/internal/ixp"
)

// mapModel is the address-keyed form of the §4.2/§4.3 inputs, built the
// straightforward way: neighbour lists appended per adjacency, other
// sides over every observed address, base mappings and IXP flags per
// interface. The dense run state must present exactly these inputs.
type mapModel struct {
	nbrF, nbrB map[inet.Addr][]inet.Addr
	otherSide  map[inet.Addr]inet.Addr
	baseAS     map[inet.Addr]inet.ASN
	ixpAddr    map[inet.Addr]bool
	addrs      []inet.Addr
	halves     []Half
	diag       Diagnostics
}

func buildMapModel(cfg *Config, ev *Evidence) *mapModel {
	m := &mapModel{
		nbrF:      make(map[inet.Addr][]inet.Addr),
		nbrB:      make(map[inet.Addr][]inet.Addr),
		otherSide: make(map[inet.Addr]inet.Addr),
		baseAS:    make(map[inet.Addr]inet.ASN),
		ixpAddr:   make(map[inet.Addr]bool),
	}
	n31 := 0
	for a := range ev.AllAddrs {
		os := inet.InferOtherSide(a, ev.AllAddrs)
		m.otherSide[a] = os.Other
		if os.Kind == inet.PtP31 {
			n31++
		}
	}
	if len(ev.AllAddrs) > 0 {
		m.diag.Slash31Fraction = float64(n31) / float64(len(ev.AllAddrs))
	}
	for _, adj := range ev.Adjacencies {
		m.nbrF[adj.First] = append(m.nbrF[adj.First], adj.Second)
		m.nbrB[adj.Second] = append(m.nbrB[adj.Second], adj.First)
	}
	for _, list := range m.nbrB {
		slices.Sort(list)
	}
	seen := make(map[inet.Addr]bool)
	for _, nbrs := range []map[inet.Addr][]inet.Addr{m.nbrF, m.nbrB} {
		for a := range nbrs {
			if !seen[a] {
				seen[a] = true
				m.addrs = append(m.addrs, a)
			}
		}
	}
	slices.Sort(m.addrs)
	m.diag.Interfaces = len(m.addrs)
	for _, a := range m.addrs {
		asn, _ := cfg.IP2AS.Lookup(a)
		m.baseAS[a] = asn
		m.ixpAddr[a] = cfg.IXP.IsIXPAddr(a) || cfg.IXP.IsIXPASN(asn)
		f, b := m.nbrF[a], m.nbrB[a]
		if len(f) >= 2 {
			m.halves = append(m.halves, Half{Addr: a, Dir: Forward})
			m.diag.EligibleForward++
		}
		if len(b) >= 2 {
			m.halves = append(m.halves, Half{Addr: a, Dir: Backward})
			m.diag.EligibleBackward++
		}
		if slices.ContainsFunc(f, func(x inet.Addr) bool { return slices.Contains(b, x) }) {
			m.diag.BothNsOverlap++
		}
	}
	return m
}

// addrIdx returns a's index in addrs, or -1 when a is outside the
// interface universe.
func (st *runState) addrIdx(a inet.Addr) int32 {
	if i, ok := slices.BinarySearch(st.addrs, a); ok {
		return int32(i)
	}
	return -1
}

// halfIdx returns h's dense index, or -1 when h's address is outside the
// interface universe.
func (st *runState) halfIdx(h Half) int32 {
	i := st.addrIdx(h.Addr)
	if i < 0 {
		return -1
	}
	return halfSlot(i, h.Dir)
}

// suggest is the map-walk probe-suggestion scan: the dense run state's
// inference columns read through the model's address-keyed inputs,
// sorted by (Addr, Dir) at the end.
func (m *mapModel) suggest(st *runState) []ProbeSuggestion {
	mapping := func(h Half) inet.ASN {
		if hi := st.halfIdx(h); st.ovSet[hi] {
			return st.idx.asnOf[st.idx.mapID[hi]]
		}
		return m.baseAS[h.Addr]
	}
	hasInference := func(h Half) bool { return st.hasInferenceIdx(st.halfIdx(h)) }
	var out []ProbeSuggestion
	for _, a := range m.addrs {
		if m.ixpAddr[a] {
			continue
		}
		for _, dir := range [2]Direction{Forward, Backward} {
			h := Half{Addr: a, Dir: dir}
			nbrs := m.nbrF[a]
			if dir == Backward {
				nbrs = m.nbrB[a]
			}
			if len(nbrs) != 1 || hasInference(h) || hasInference(h.Opposite()) {
				continue
			}
			n := nbrs[0]
			if m.ixpAddr[n] {
				continue
			}
			nh := Half{Addr: n, Dir: dir.Opposite()}
			localAS, nbrAS := mapping(h), mapping(nh)
			if localAS.IsZero() || nbrAS.IsZero() || st.cfg.Orgs.SameOrg(localAS, nbrAS) ||
				hasInference(nh) {
				continue
			}
			out = append(out, ProbeSuggestion{Addr: a, Dir: dir, Neighbor: n,
				LocalAS: localAS, NeighborAS: nbrAS})
		}
	}
	slices.SortFunc(out, func(x, y ProbeSuggestion) int {
		return cmp.Or(cmp.Compare(x.Addr, y.Addr), cmp.Compare(x.Dir, y.Dir))
	})
	return out
}

// compareDense reports the first difference between the dense run state
// and the map model of the same evidence, before and after the
// fixpoint; "" when they agree.
func compareDense(cfg *Config, ev *Evidence) string {
	m := buildMapModel(cfg, ev)
	st := newRunState(cfg, ev)
	if !slices.Equal(st.addrs, m.addrs) {
		return fmt.Sprintf("interfaces %v, model %v", st.addrs, m.addrs)
	}
	for i, a := range st.addrs {
		if got, want := nsAddrs(st, halfSlot(int32(i), Forward)), m.nbrF[a]; !slices.Equal(got, want) {
			return fmt.Sprintf("N_F(%v) = %v, model %v", a, got, want)
		}
		if got, want := nsAddrs(st, halfSlot(int32(i), Backward)), m.nbrB[a]; !slices.Equal(got, want) {
			return fmt.Sprintf("N_B(%v) = %v, model %v", a, got, want)
		}
		o, ok := m.otherSide[a]
		if st.hasOther[i] != ok || st.otherA[i] != o {
			return fmt.Sprintf("other side of %v = (%v, %v), model (%v, %v)",
				a, st.otherA[i], st.hasOther[i], o, ok)
		}
		wantOI := int32(-1)
		if j, found := slices.BinarySearch(m.addrs, o); ok && found {
			wantOI = int32(j)
		}
		if st.idx.otherIdx[i] != wantOI {
			return fmt.Sprintf("other-side id of %v = %d, model %d", a, st.idx.otherIdx[i], wantOI)
		}
		if got := st.idx.asnAt(st.idx.baseID[i]); got != m.baseAS[a] {
			return fmt.Sprintf("base mapping of %v = %v, model %v", a, got, m.baseAS[a])
		}
		if st.idx.ixpA[i] != m.ixpAddr[a] {
			return fmt.Sprintf("IXP flag of %v = %v, model %v", a, st.idx.ixpA[i], m.ixpAddr[a])
		}
	}
	var halves []Half
	for _, hi := range st.idx.halvesIdx {
		halves = append(halves, st.halfAt(hi))
	}
	if !slices.Equal(halves, m.halves) {
		return fmt.Sprintf("eligible halves %v, model %v", halves, m.halves)
	}
	for hi := range int32(2 * len(st.addrs)) {
		if eligible := st.idx.nbrOff[hi+1] > st.idx.nbrOff[hi]; eligible != (len(st.ns(hi)) >= 2) {
			return fmt.Sprintf("half %v: eligible range %v with |N| = %d", st.halfAt(hi), eligible, len(st.ns(hi)))
		}
	}
	if got := st.diag; got.Interfaces != m.diag.Interfaces ||
		got.EligibleForward != m.diag.EligibleForward || got.EligibleBackward != m.diag.EligibleBackward ||
		got.BothNsOverlap != m.diag.BothNsOverlap || got.Slash31Fraction != m.diag.Slash31Fraction {
		return fmt.Sprintf("diagnostics %+v, model %+v", got, m.diag)
	}
	st.fixpoint()
	if got, want := st.suggestProbes(), m.suggest(st); !slices.Equal(got, want) {
		return fmt.Sprintf("probe suggestions %v, model %v", got, want)
	}
	if st.stateHash() != st.stateHashRecompute() {
		return "maintained state fingerprint diverges from the recompute"
	}
	return ""
}

// denseQuickConfig is the random-evidence config: a sibling pair, so
// suggestions meet the organisation test, and an IXP prefix plus an IXP
// ASN inside the random address buckets (randEvidence draws the low 97
// addresses of each /16).
func denseQuickConfig(workers int) *Config {
	orgs := as2org.New()
	orgs.AddSiblingPair(100, 300)
	dir := ixp.New()
	dir.AddPrefix(inet.MustParsePrefix("20.101.0.32/28"), "IX-A")
	dir.AddASN(400, "IX-B")
	ip2as := table("20.100.0.0/16=100", "20.101.0.0/16=200",
		"20.102.0.0/26=300", "20.102.0.64/26=400")
	return &Config{IP2AS: ip2as, Orgs: orgs, IXP: dir, F: 0.5, Workers: workers}
}

// TestDenseStateMatchesMapModel: on random evidence at several worker
// counts, the dense build presents the same neighbour sets, other sides,
// base mappings, IXP flags, eligible halves and build diagnostics as the
// map model, and the id-order probe scan matches the map-walk scan.
func TestDenseStateMatchesMapModel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := func(hops []uint16, fRaw uint8) bool {
			cfg := denseQuickConfig(workers)
			cfg.F = float64(fRaw%11) / 10
			if diff := compareDense(cfg, EvidenceFrom(randEvidence(hops))); diff != "" {
				t.Logf("workers=%d: %s", workers, diff)
				return false
			}
			return true
		}
		if err := quick.Check(f, quickCfg(150)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}

	t.Run("endpoint-not-observed", func(t *testing.T) {
		// 20.101.0.9 appears only as an adjacency endpoint: it is an
		// interface without an other side.
		ev := evidence([]string{"20.100.0.1", "20.100.0.5"},
			[2]string{"20.100.0.1", "20.101.0.9"}, [2]string{"20.100.0.5", "20.101.0.9"})
		cfg := denseQuickConfig(1)
		if diff := compareDense(cfg, ev); diff != "" {
			t.Fatal(diff)
		}
		st := newRunState(cfg, ev)
		if i := st.addrIdx(ip("20.101.0.9")); i < 0 || st.hasOther[i] {
			t.Fatalf("unobserved endpoint: id %d, has other side", i)
		}
	})

	t.Run("unindexed-other-side-override", func(t *testing.T) {
		// x's /30 other side 4.68.110.185 never appears in a trace, so
		// the indirect record and override that x_f's direct inference
		// puts on it lie outside the id space: no column holds them,
		// but the fingerprint must.
		ip2as := table("62.115.0.0/16=1299", "4.68.0.0/16=3356", "91.200.0.0/16=51159")
		s := sanitized(
			tr("62.115.0.1", "4.68.110.186", "91.200.0.1"),
			tr("62.115.0.5", "4.68.110.186", "91.200.0.5"),
		)
		cfg := &Config{IP2AS: ip2as, F: 0.5}
		ev := EvidenceFrom(s)
		if diff := compareDense(cfg, ev); diff != "" {
			t.Fatal(diff)
		}
		st := newRunState(cfg, ev)
		st.fixpoint()
		x, oh := Half{Addr: ip("4.68.110.186"), Dir: Forward}, Half{Addr: ip("4.68.110.185"), Dir: Backward}
		if st.halfIdx(oh) != -1 {
			t.Fatalf("other side %v is indexed", oh)
		}
		xi := st.halfIdx(x)
		if got, ok := st.outsideHalf(xi); !ok || got != oh {
			t.Fatalf("outside half of %v = %v, %v; want %v", x, got, ok, oh)
		}
		if st.stateHash() != st.stateHashRecompute() {
			t.Fatal("maintained state fingerprint diverges from the recompute")
		}
		// The fingerprint is the explicit records plus exactly the
		// outside half's indirect record (source x) and override (51159).
		var explicit uint64
		for hi := range int32(len(st.dirConnID)) {
			if c := st.dirConnID[hi]; c >= 0 {
				explicit += entryHash(directTag(st.dirUnc[hi]), st.halfAt(hi), uint32(st.idx.asnOf[c]))
			}
			if src := st.indirectSrc[hi]; src >= 0 {
				explicit += st.indirectHash(hi, src)
			}
			if st.ovSet[hi] {
				explicit += st.overrideHash(hi, st.idx.mapID[hi])
			}
		}
		if got, want := st.stateHash()-explicit, entryHash(3, oh, uint32(x.Addr))+entryHash(4, oh, 51159); got != want {
			t.Fatalf("outside records contribute %#x to the fingerprint, want %#x", got, want)
		}
		// The result reports x_f's link toward the unobserved other side
		// but no record on it.
		var found bool
		for _, inf := range st.result().Inferences {
			if inf.Addr == oh.Addr {
				t.Fatalf("record on the unobserved other side: %+v", inf)
			}
			if inf.Addr == x.Addr && inf.Dir == x.Dir && !inf.Indirect {
				found = inf.Connected == 51159 && inf.OtherSide == oh.Addr
			}
		}
		if !found {
			t.Fatalf("no direct record on %v toward 51159 naming other side %v", x, oh.Addr)
		}
	})

	t.Run("pinned-boundaries", func(t *testing.T) {
		// a_f's lone neighbour n has a direct inference on n_b, and d_f's
		// opposite half d_b has one: neither single-neighbour half is a
		// suggestion, though each crosses an organisation boundary.
		ip2as := table("20.100.0.0/16=100", "20.101.0.0/16=200", "20.103.0.0/16=500")
		ev := evidence([]string{"20.100.0.1", "20.100.0.13", "20.101.0.1", "20.101.0.5",
			"20.101.0.17", "20.101.0.21", "20.103.0.9", "20.103.0.25"},
			[2]string{"20.100.0.1", "20.103.0.9"}, [2]string{"20.100.0.13", "20.103.0.25"},
			[2]string{"20.101.0.1", "20.103.0.9"}, [2]string{"20.101.0.5", "20.103.0.9"},
			[2]string{"20.101.0.17", "20.100.0.13"}, [2]string{"20.101.0.21", "20.100.0.13"})
		cfg := &Config{IP2AS: ip2as, F: 0.5}
		if diff := compareDense(cfg, ev); diff != "" {
			t.Fatal(diff)
		}
		st := newRunState(cfg, ev)
		st.fixpoint()
		for _, h := range []Half{{Addr: ip("20.103.0.9"), Dir: Backward}, {Addr: ip("20.100.0.13"), Dir: Backward}} {
			if st.dirConnID[st.halfIdx(h)] < 0 {
				t.Fatalf("fixture lost its direct inference on %v", h)
			}
		}
		for _, sug := range st.suggestProbes() {
			if sug.Dir == Forward && (sug.Addr == ip("20.100.0.1") || sug.Addr == ip("20.100.0.13")) {
				t.Fatalf("suggestion on a pinned boundary: %+v", sug)
			}
		}
	})

	t.Run("both-ns-overlap", func(t *testing.T) {
		ev := evidence([]string{"20.100.0.33", "20.101.0.37"},
			[2]string{"20.100.0.33", "20.101.0.37"}, [2]string{"20.101.0.37", "20.100.0.33"})
		if diff := compareDense(denseQuickConfig(1), ev); diff != "" {
			t.Fatal(diff)
		}
		if st := newRunState(denseQuickConfig(1), ev); st.diag.BothNsOverlap != 2 {
			t.Fatalf("BothNsOverlap = %d, want 2", st.diag.BothNsOverlap)
		}
	})

	t.Run("unsorted-adjacencies", func(t *testing.T) {
		// Hand-built evidence in another order, with a duplicate, runs
		// as its sorted, deduplicated form.
		sorted := EvidenceFrom(sanitized(
			tr("62.115.0.1", "4.68.110.186", "91.200.0.1"),
			tr("62.115.0.5", "4.68.110.186", "91.200.0.5"),
			tr("62.115.0.9", "4.68.110.186", "91.200.0.9"),
		))
		shuffled := &Evidence{AllAddrs: sorted.AllAddrs,
			Adjacencies: append(slices.Clone(sorted.Adjacencies), sorted.Adjacencies[0])}
		slices.Reverse(shuffled.Adjacencies)
		cfg := Config{IP2AS: table("62.115.0.0/16=1299", "4.68.0.0/16=3356", "91.200.0.0/16=51159"), F: 0.5}
		want, err := RunEvidence(sorted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunEvidence(shuffled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Inferences) == 0 {
			t.Fatal("fixture makes no inferences")
		}
		assertSameResult(t, "unsorted", want, got)
	})

	t.Run("ixp-neighbour", func(t *testing.T) {
		dir := ixp.New()
		dir.AddPrefix(inet.MustParsePrefix("80.249.208.0/21"), "AMS-IX")
		ev := evidence([]string{"20.100.0.1", "80.249.208.1", "20.101.0.1", "20.101.0.5"},
			[2]string{"20.100.0.1", "20.101.0.1"}, [2]string{"20.100.0.1", "20.101.0.5"},
			[2]string{"20.100.0.1", "80.249.208.1"})
		cfg := &Config{IP2AS: quickIP2AS(), IXP: dir, F: 0.5}
		if diff := compareDense(cfg, ev); diff != "" {
			t.Fatal(diff)
		}
		st := newRunState(cfg, ev)
		hi := halfSlot(st.addrIdx(ip("20.100.0.1")), Forward)
		neg := 0
		for _, ni := range st.idx.nbrHalf[st.idx.nbrOff[hi]:st.idx.nbrOff[hi+1]] {
			if ni < 0 {
				neg++
				if h := st.halfAt(^ni); h != (Half{Addr: ip("80.249.208.1"), Dir: Backward}) {
					t.Fatalf("complemented operand names %v", h)
				}
			}
		}
		if neg != 1 {
			t.Fatalf("%d complemented election operands, want 1", neg)
		}
	})

	t.Run("zero-address-other-side", func(t *testing.T) {
		// 0.0.0.0 is observed, so 0.0.0.1 is /31-numbered and its
		// other side is the zero address.
		ip2as := table("0.0.0.0/24=100", "20.101.0.0/16=200")
		ev := evidence([]string{"0.0.0.0", "0.0.0.1", "20.101.0.1", "20.101.0.5", "20.100.0.9"},
			[2]string{"0.0.0.1", "20.101.0.1"}, [2]string{"0.0.0.1", "20.101.0.5"},
			[2]string{"20.100.0.9", "0.0.0.1"})
		cfg := &Config{IP2AS: ip2as, F: 0.5}
		if diff := compareDense(cfg, ev); diff != "" {
			t.Fatal(diff)
		}
		r, err := RunEvidence(ev, *cfg)
		if err != nil {
			t.Fatal(err)
		}
		var direct, indirect bool
		for _, inf := range r.Inferences {
			switch {
			case inf.Addr == ip("0.0.0.1") && !inf.Indirect:
				direct = inf.OtherSide == 0 && inf.Connected == 200
			case inf.Addr == 0 && inf.Indirect:
				indirect = inf.Dir == Backward && inf.OtherSide == ip("0.0.0.1")
			}
		}
		if !direct || !indirect {
			t.Fatalf("want a direct record on 0.0.0.1 naming other side 0.0.0.0 and an indirect "+
				"record on 0.0.0.0; got %+v", r.Inferences)
		}
	})
}
