package snapshot_test

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

func ip(s string) inet.Addr { return inet.MustParseAddr(s) }

// testWorld runs a small multi-monitor corpus through the engine with
// monitor tracking on, returning the result and the evidence.
func testWorld(t testing.TB) (*core.Result, *core.Evidence) {
	t.Helper()
	table := bgp.EmptyTable()
	for _, e := range []struct {
		p   string
		asn inet.ASN
	}{
		{"109.105.0.0/16", 2603},
		{"198.71.0.0/16", 11537},
		{"64.57.0.0/16", 11537},
		{"199.109.0.0/16", 3754},
	} {
		table.Add(inet.MustParsePrefix(e.p), e.asn)
	}
	traces := []trace.Trace{
		trace.NewTrace("ark1", ip("199.109.200.1"), ip("109.105.98.10"), ip("198.71.45.2")),
		trace.NewTrace("ark1", ip("199.109.200.2"), ip("109.105.98.10"), ip("198.71.46.180")),
		trace.NewTrace("ark1", ip("199.109.200.3"), ip("109.105.98.10"), ip("199.109.5.1")),
		trace.NewTrace("ark2", ip("199.109.200.4"), ip("64.57.28.1"), ip("199.109.5.1")),
		trace.NewTrace("ark3", ip("109.105.200.1"), ip("109.105.98.9"), ip("109.105.80.1")),
	}
	c := core.NewCollector()
	c.TrackMonitors()
	for _, tr := range traces {
		c.Add(tr)
	}
	ev := c.Evidence()
	res, err := core.RunEvidence(ev, core.Config{IP2AS: table, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inferences) == 0 {
		t.Fatal("test world produced no inferences")
	}
	return res, ev
}

// rowsSlice materialises a view for comparison.
func rowsSlice(r snapshot.Rows) []core.Inference {
	out := make([]core.Inference, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.At(i))
	}
	return out
}

func TestLookupMatchesByAddr(t *testing.T) {
	res, ev := testWorld(t)
	s := snapshot.Build(res, ev)
	if s.Len() != len(res.Inferences) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(res.Inferences))
	}
	seen := map[inet.Addr]bool{}
	for _, inf := range res.Inferences {
		seen[inf.Addr] = true
	}
	for a := range seen {
		got, want := rowsSlice(s.Lookup(a)), res.ByAddr(a)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%v) = %+v, want %+v", a, got, want)
		}
		// Near misses must not alias into the span.
		for _, miss := range []inet.Addr{a - 1, a + 1} {
			if !seen[miss] && s.Lookup(miss).Len() != 0 {
				t.Fatalf("Lookup(%v) hit on an uninferred address", miss)
			}
		}
	}
	if s.Lookup(0).Len() != 0 || s.Lookup(^inet.Addr(0)).Len() != 0 {
		t.Fatal("extreme addresses hit")
	}
}

func TestHighConfidenceMatchesResult(t *testing.T) {
	res, ev := testWorld(t)
	s := snapshot.Build(res, ev)
	if got, want := s.HighConfidence(), res.HighConfidence(); !slices.Equal(got, want) {
		t.Fatalf("HighConfidence diverges:\n got  %+v\n want %+v", got, want)
	}
}

func TestLinksMatchResult(t *testing.T) {
	res, ev := testWorld(t)
	s := snapshot.Build(res, ev)
	ref := res.Links()
	if s.LinkCount() != len(ref) {
		t.Fatalf("LinkCount = %d, want %d", s.LinkCount(), len(ref))
	}
	for _, l := range ref {
		for _, order := range [][2]inet.ASN{{l.A, l.B}, {l.B, l.A}} {
			v := s.Links(order[0], order[1])
			if v.Len() != len(l.Addrs) {
				t.Fatalf("Links(%v,%v).Len = %d, want %d", order[0], order[1], v.Len(), len(l.Addrs))
			}
			for i, want := range l.Addrs {
				if got := v.Addr(i); got != want {
					t.Fatalf("Links(%v,%v).Addr(%d) = %v, want %v", order[0], order[1], i, got, want)
				}
				inf := v.At(i)
				a, b := inf.Link()
				if a != l.A || b != l.B || inf.Addr != want {
					t.Fatalf("Links(%v,%v).At(%d) = %+v", order[0], order[1], i, inf)
				}
			}
		}
	}
	if s.Links(64496, 64497).Len() != 0 {
		t.Fatal("unknown pair resolved")
	}
	// EachLink walks the same aggregation in the same order.
	i := 0
	s.EachLink(func(a, b inet.ASN, l snapshot.Link) bool {
		if a != ref[i].A || b != ref[i].B || l.Len() != len(ref[i].Addrs) {
			t.Fatalf("EachLink[%d] = (%v,%v,%d), want (%v,%v,%d)",
				i, a, b, l.Len(), ref[i].A, ref[i].B, len(ref[i].Addrs))
		}
		i++
		return true
	})
	if i != len(ref) {
		t.Fatalf("EachLink visited %d pairs, want %d", i, len(ref))
	}
}

func TestMonitorEvidence(t *testing.T) {
	res, ev := testWorld(t)
	s := snapshot.Build(res, ev)
	if s.MonitorCount() != len(ev.Monitors) {
		t.Fatalf("MonitorCount = %d, want %d", s.MonitorCount(), len(ev.Monitors))
	}
	for i, want := range ev.Monitors {
		if name := s.MonitorName(i); name != want.Monitor {
			t.Fatalf("MonitorName(%d) = %q, want %q", i, name, want.Monitor)
		}
		m, ok := s.MonitorEvidence(want.Monitor)
		if !ok {
			t.Fatalf("MonitorEvidence(%q) missing", want.Monitor)
		}
		if m.Traces() != want.Traces || m.Len() != len(want.Adjacencies) {
			t.Fatalf("MonitorEvidence(%q) = (%d traces, %d adjs), want (%d, %d)",
				want.Monitor, m.Traces(), m.Len(), want.Traces, len(want.Adjacencies))
		}
		for j := range want.Adjacencies {
			if m.At(j) != want.Adjacencies[j] {
				t.Fatalf("MonitorEvidence(%q).At(%d) = %v, want %v",
					want.Monitor, j, m.At(j), want.Adjacencies[j])
			}
		}
	}
	if _, ok := s.MonitorEvidence("no-such-monitor"); ok {
		t.Fatal("unknown monitor resolved")
	}
}

// A snapshot built without evidence answers address and link queries and
// reports an empty monitor index.
func TestBuildWithoutEvidence(t *testing.T) {
	res, _ := testWorld(t)
	s := snapshot.Build(res, nil)
	if s.Len() != len(res.Inferences) {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.MonitorCount() != 0 {
		t.Fatalf("MonitorCount = %d", s.MonitorCount())
	}
	if _, ok := s.MonitorEvidence("ark1"); ok {
		t.Fatal("monitor resolved without evidence")
	}
}

// An empty result compiles into a snapshot that answers (emptily)
// rather than panicking.
func TestBuildEmpty(t *testing.T) {
	s := snapshot.Build(&core.Result{}, nil)
	if s.Len() != 0 || s.AddrCount() != 0 || s.LinkCount() != 0 {
		t.Fatalf("empty snapshot not empty: %d/%d/%d", s.Len(), s.AddrCount(), s.LinkCount())
	}
	if s.Lookup(ip("10.0.0.1")).Len() != 0 {
		t.Fatal("empty snapshot resolved an address")
	}
	if len(s.HighConfidence()) != 0 {
		t.Fatal("empty snapshot has high-confidence records")
	}
}

// The read hot paths must not allocate: address lookup (including row
// materialisation), AS-pair lookup, and monitor lookup.
func TestZeroAllocLookups(t *testing.T) {
	res, ev := testWorld(t)
	s := snapshot.Build(res, ev)
	addrs := make([]inet.Addr, 0, len(res.Inferences)+2)
	for _, inf := range res.Inferences {
		addrs = append(addrs, inf.Addr)
	}
	addrs = append(addrs, ip("8.8.8.8"), ip("203.0.113.7")) // misses
	links := res.Links()

	var sink int
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			rows := s.Lookup(a)
			for i := 0; i < rows.Len(); i++ {
				sink += int(rows.At(i).Connected)
			}
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, l := range links {
			v := s.Links(l.A, l.B)
			for i := 0; i < v.Len(); i++ {
				sink += int(v.Addr(i))
			}
		}
	}); n != 0 {
		t.Errorf("Links allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range ev.Monitors {
			v, _ := s.MonitorEvidence(m.Monitor)
			for i := 0; i < v.Len(); i++ {
				sink += int(v.At(i).First)
			}
		}
	}); n != 0 {
		t.Errorf("MonitorEvidence allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink += len(s.HighConfidence())
	}); n != 0 {
		t.Errorf("HighConfidence allocates %v per run", n)
	}
	_ = sink
}

// Build must not depend on the result being pre-sorted: a shuffled
// inference list compiles to the same per-address answers (in the
// shuffled list's own record order).
func TestBuildUnsortedResult(t *testing.T) {
	res, ev := testWorld(t)
	shuffled := &core.Result{Inferences: slices.Clone(res.Inferences)}
	// Deterministic scramble: reverse.
	slices.Reverse(shuffled.Inferences)
	s := snapshot.Build(shuffled, ev)
	for _, inf := range res.Inferences {
		got, want := rowsSlice(s.Lookup(inf.Addr)), shuffled.ByAddr(inf.Addr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%v) on shuffled input = %+v, want %+v", inf.Addr, got, want)
		}
	}
}

// Concurrent readers across Handle.Swap: run under -race. Two distinct
// snapshots alternate in the handle while readers hammer every query
// family; each loaded snapshot must stay internally consistent (the
// sentinel address resolves iff the snapshot is the one that has it).
func TestHandleSwapRace(t *testing.T) {
	res, ev := testWorld(t)
	full := snapshot.Build(res, ev)

	// A second, disjoint world: one sentinel inference nothing in the
	// full world has.
	sentinel := ip("203.0.113.9")
	small := snapshot.Build(&core.Result{Inferences: []core.Inference{{
		Addr: sentinel, Dir: core.Forward, Local: 64496, Connected: 64497,
	}}}, nil)

	var h snapshot.Handle
	h.Swap(full)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Load()
				if s == nil {
					continue
				}
				hasSentinel := s.Lookup(sentinel).Len() == 1
				if hasSentinel != (s.Len() == 1) {
					t.Errorf("torn snapshot: sentinel=%v len=%d", hasSentinel, s.Len())
					return
				}
				if !hasSentinel {
					if got := len(s.HighConfidence()); got != len(res.HighConfidence()) {
						t.Errorf("full snapshot lost high-confidence rows: %d", got)
						return
					}
					if _, ok := s.MonitorEvidence("ark1"); !ok {
						t.Error("full snapshot lost monitor index")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			h.Swap(small)
		} else {
			h.Swap(full)
		}
	}
	close(stop)
	wg.Wait()
	if prev := h.Swap(nil); prev == nil {
		t.Fatal("handle lost its snapshot")
	}
	if h.Load() != nil {
		t.Fatal("unpublish did not take")
	}
}

// Guard against accidental fmt-style breakage of the string compare used
// by the monitor binary search: index order is strict byte order.
func TestMonitorIndexOrder(t *testing.T) {
	_, ev := testWorld(t)
	for i := 1; i < len(ev.Monitors); i++ {
		if strings.Compare(ev.Monitors[i-1].Monitor, ev.Monitors[i].Monitor) >= 0 {
			t.Fatalf("evidence monitors unsorted at %d", i)
		}
	}
}

// TestHandleVersion pins the versioned-publication contract the serving
// layer's ETag/cursor validation is built on: versions start at 0 on an
// empty handle, every Swap (including an unpublish) assigns a fresh
// strictly increasing version, and LoadVersion returns a consistent
// (snapshot, version) pair even across concurrent swaps.
func TestHandleVersion(t *testing.T) {
	res, ev := testWorld(t)
	full := snapshot.Build(res, ev)

	var h snapshot.Handle
	if s, v := h.LoadVersion(); s != nil || v != 0 {
		t.Fatalf("empty handle = (%v, %d), want (nil, 0)", s, v)
	}
	if h.Version() != 0 {
		t.Fatalf("empty handle Version = %d, want 0", h.Version())
	}

	h.Swap(full)
	s, v := h.LoadVersion()
	if s != full || v != 1 {
		t.Fatalf("after first Swap = (%p, %d), want (%p, 1)", s, v, full)
	}
	h.Swap(full) // republishing the same snapshot still bumps the version
	if got := h.Version(); got != 2 {
		t.Fatalf("after second Swap Version = %d, want 2", got)
	}
	h.Swap(nil) // unpublish is a publication too: readers must see it as new
	if s, v := h.LoadVersion(); s != nil || v != 3 {
		t.Fatalf("after unpublish = (%v, %d), want (nil, 3)", s, v)
	}

	// Concurrent swaps must hand out unique versions, and a reader must
	// never observe a (snapshot, version) pair that was not published.
	const writers, swapsPer = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < swapsPer; i++ {
				h.Swap(full)
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, v := h.LoadVersion()
			if v < last {
				t.Errorf("observed version went backwards: %d after %d", v, last)
				return
			}
			last = v
			if v > 3 && s != full {
				t.Errorf("version %d paired with wrong snapshot %p", v, s)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got, want := h.Version(), uint64(3+writers*swapsPer); got != want {
		t.Fatalf("final Version = %d, want %d", got, want)
	}
}
