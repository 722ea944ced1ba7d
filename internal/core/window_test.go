package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Window tests: the refcounted evidence must equal a fresh collector
// over exactly the resident traces at every position (the in-package
// half of the DiffWindow oracle), the expiry wheel must survive its
// edge cases, and the churn counters must track link and interface
// life cycles.

// windowConfig returns an inference config covering both trace sets
// the window tests use.
func windowConfig() Config {
	return Config{
		IP2AS: table(
			"109.105.0.0/16=2603",
			"198.71.0.0/16=11537",
			"64.57.0.0/16=11537",
			"199.109.0.0/16=3754",
			"20.1.0.0/16=100",
			"20.2.0.0/16=200",
		),
		F: 0.5,
	}
}

// setA is the Fig 2 corpus; setB an independent AS100–AS200 boundary.
func setA(at int64) []trace.Trace {
	ts := []trace.Trace{
		tr("109.105.98.10", "198.71.45.2"),
		tr("109.105.98.10", "198.71.46.180"),
		tr("109.105.98.10", "199.109.5.1"),
		tr("64.57.28.1", "199.109.5.1"),
		tr("109.105.98.9", "109.105.80.1"),
	}
	for i := range ts {
		ts[i].Time = at
	}
	return ts
}

func setB(at int64) []trace.Trace {
	ts := []trace.Trace{
		tr("20.1.0.1", "20.2.0.2"),
		tr("20.1.0.1", "20.2.0.3"),
	}
	for i := range ts {
		ts[i].Time = at
	}
	return ts
}

// batchOver runs a fresh collector + batch inference over exactly the
// given traces — the reference every window position must match.
func batchOver(t *testing.T, traces []trace.Trace, cfg Config, trackMon bool) (*Evidence, *Result) {
	t.Helper()
	c := NewCollector()
	if trackMon {
		c.TrackMonitors()
	}
	for _, tc := range traces {
		c.Add(tc)
	}
	ev := c.Evidence()
	res, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev, res
}

// sameWindowResult asserts a windowed result is byte-identical to the
// batch reference, modulo the Diag.Window stamp.
func sameWindowResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Inferences, want.Inferences) {
		t.Fatalf("%s: inferences diverge: %d vs %d records", label, len(got.Inferences), len(want.Inferences))
	}
	if !reflect.DeepEqual(got.ProbeSuggestions, want.ProbeSuggestions) {
		t.Fatalf("%s: probe suggestions diverge", label)
	}
	gd := got.Diag
	gd.Window = WindowStats{}
	if gd != want.Diag {
		t.Fatalf("%s: diagnostics diverge:\n  windowed %+v\n  batch    %+v", label, gd, want.Diag)
	}
}

// sameEvidence asserts two evidences are identical in content.
func sameEvidence(t *testing.T, label string, got, want *Evidence) {
	t.Helper()
	if !reflect.DeepEqual(got.AllAddrs, want.AllAddrs) {
		t.Fatalf("%s: AllAddrs diverge (%d vs %d)", label, len(got.AllAddrs), len(want.AllAddrs))
	}
	if !reflect.DeepEqual(got.Adjacencies, want.Adjacencies) {
		t.Fatalf("%s: adjacencies diverge (%d vs %d)", label, len(got.Adjacencies), len(want.Adjacencies))
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Monitors, want.Monitors) {
		t.Fatalf("%s: monitor attribution diverges", label)
	}
}

// TestWindowMatchesBatchEveryPosition drives a mixed timeline through a
// 60s window and checks, at every advance, evidence and result equal a
// from-scratch batch run over exactly the resident traces.
func TestWindowMatchesBatchEveryPosition(t *testing.T) {
	cfg := windowConfig()
	for _, trackMon := range []bool{false, true} {
		w, err := NewWindow(WindowOptions{Length: 60 * time.Second, Config: cfg, TrackMonitors: trackMon})
		if err != nil {
			t.Fatal(err)
		}
		a := setA(100)
		b := setB(130)
		a2 := setA(310)

		type step struct {
			arrive  []trace.Trace
			now     int64
			want    []trace.Trace // resident after the advance
			changed bool          // whether this advance must recompute
		}
		steps := []step{
			{arrive: append(append([]trace.Trace{}, a...), b...), now: 130,
				want: append(append([]trace.Trace{}, a...), b...), changed: true},
			{now: 170, want: b, changed: true},              // A (t=100) expired: 170-60=110 ≥ 100
			{now: 300, want: nil, changed: true},            // everything expired
			{arrive: a2, now: 310, want: a2, changed: true}, // A returns
			{now: 310, want: a2},                            // no-op advance
		}

		recomputes := 0
		for i, st := range steps {
			for _, tc := range st.arrive {
				w.Observe(tc)
			}
			res, err := w.Advance(st.now)
			if err != nil {
				t.Fatal(err)
			}
			wantEv, wantRes := batchOver(t, st.want, cfg, trackMon)
			label := fmt.Sprintf("trackMon=%v step=%d", trackMon, i)
			sameEvidence(t, label, w.Evidence(), wantEv)
			sameWindowResult(t, label, res, wantRes)
			if res.Diag.Window.TracesActive != len(st.want) {
				t.Fatalf("%s: TracesActive=%d want %d", label, res.Diag.Window.TracesActive, len(st.want))
			}
			if st.changed {
				recomputes++
			}
			if got := res.Diag.Window.Recomputes; got != recomputes {
				t.Fatalf("%s: Recomputes=%d want %d", label, got, recomputes)
			}
		}
	}
}

// TestWindowEdges is the expiry-wheel edge table: empty window, window
// smaller than one step, all-evidence-expires-at-once, duplicate
// timestamps straddling a boundary, and the Remove of a trace that was
// never Added (a late arrival).
func TestWindowEdges(t *testing.T) {
	cfg := windowConfig()
	newW := func(length time.Duration) *Window {
		w, err := NewWindow(WindowOptions{Length: length, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	t.Run("empty window", func(t *testing.T) {
		w := newW(60 * time.Second)
		res, err := w.Advance(1000)
		if err != nil {
			t.Fatal(err)
		}
		_, want := batchOver(t, nil, cfg, false)
		sameWindowResult(t, "empty", res, want)
		if res.Diag.Window.Advances != 1 || res.Diag.Window.Recomputes != 1 {
			t.Fatalf("stats: %+v", res.Diag.Window)
		}
	})

	t.Run("window smaller than one step", func(t *testing.T) {
		// 10s window advanced in 100s steps: every advance expires the
		// entire previous contents.
		w := newW(10 * time.Second)
		for _, tc := range setA(100) {
			w.Observe(tc)
		}
		if _, err := w.Advance(105); err != nil {
			t.Fatal(err)
		}
		if w.Traces() != len(setA(100)) {
			t.Fatalf("resident %d", w.Traces())
		}
		for _, tc := range setB(200) {
			w.Observe(tc)
		}
		res, err := w.Advance(205)
		if err != nil {
			t.Fatal(err)
		}
		_, want := batchOver(t, setB(200), cfg, false)
		sameWindowResult(t, "step>window", res, want)
		if res.Diag.Window.TracesExpired != int64(len(setA(100))) {
			t.Fatalf("expired %d", res.Diag.Window.TracesExpired)
		}
	})

	t.Run("all evidence expires at once", func(t *testing.T) {
		w := newW(60 * time.Second)
		for _, tc := range append(setA(100), setB(100)...) {
			w.Observe(tc)
		}
		if _, err := w.Advance(120); err != nil {
			t.Fatal(err)
		}
		res, err := w.Advance(160) // 160-60=100 ≥ 100: everything goes
		if err != nil {
			t.Fatal(err)
		}
		_, want := batchOver(t, nil, cfg, false)
		sameWindowResult(t, "mass expiry", res, want)
		if w.Traces() != 0 {
			t.Fatalf("resident %d after mass expiry", w.Traces())
		}
	})

	t.Run("duplicate timestamps straddling a boundary", func(t *testing.T) {
		// Entries sharing t=100 and t=101: an advance whose cutoff lands
		// exactly on 100 must expire all of the former and none of the
		// latter.
		w := newW(60 * time.Second)
		dup := append(setA(100), setB(100)...)
		edge := setB(101)
		for _, tc := range append(append([]trace.Trace{}, dup...), edge...) {
			w.Observe(tc)
		}
		res, err := w.Advance(160) // cutoff 100: expires ≤100
		if err != nil {
			t.Fatal(err)
		}
		_, want := batchOver(t, edge, cfg, false)
		sameWindowResult(t, "boundary", res, want)
		if res.Diag.Window.TracesExpired != int64(len(dup)) {
			t.Fatalf("expired %d want %d", res.Diag.Window.TracesExpired, len(dup))
		}
	})

	t.Run("remove of a trace never added", func(t *testing.T) {
		w := newW(60 * time.Second)
		if _, err := w.Advance(1000); err != nil {
			t.Fatal(err)
		}
		late := setA(940) // 940 ≤ 1000-60: already expired on arrival
		for _, tc := range late {
			if w.Observe(tc) {
				t.Fatal("late trace accepted")
			}
		}
		res, err := w.Advance(1001)
		if err != nil {
			t.Fatal(err)
		}
		_, want := batchOver(t, nil, cfg, false)
		sameWindowResult(t, "late", res, want)
		st := res.Diag.Window
		if st.TracesLate != int64(len(late)) || st.TracesObserved != int64(len(late)) || st.TracesExpired != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("advance backwards", func(t *testing.T) {
		w := newW(60 * time.Second)
		if _, err := w.Advance(100); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Advance(99); err == nil {
			t.Fatal("backwards advance accepted")
		}
	})
}

// TestWindowChurn walks links and interfaces through birth, death and
// rebirth and checks the counters, deriving the expected values from
// the batch reference runs rather than hard-coding topology knowledge.
func TestWindowChurn(t *testing.T) {
	cfg := windowConfig()
	w, err := NewWindow(WindowOptions{Length: 60 * time.Second, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	linkSet := func(res *Result) map[[2]inet.ASN]struct{} {
		out := make(map[[2]inet.ASN]struct{})
		for _, l := range res.Links() {
			out[[2]inet.ASN{l.A, l.B}] = struct{}{}
		}
		return out
	}
	ifaceSet := func(res *Result) map[inet.Addr]struct{} {
		out := make(map[inet.Addr]struct{})
		for _, inf := range res.Inferences {
			if !inf.Indirect && !inf.Uncertain {
				out[inf.Addr] = struct{}{}
			}
		}
		return out
	}

	_, resAB := batchOver(t, append(setA(0), setB(0)...), cfg, false)
	_, resB := batchOver(t, setB(0), cfg, false)
	_, resA := batchOver(t, setA(0), cfg, false)
	linksAB, linksB, linksA := linkSet(resAB), linkSet(resB), linkSet(resA)
	if len(linksAB) < 2 || len(linksB) == 0 || len(linksA) == 0 {
		t.Fatalf("fixture too weak: links AB=%d B=%d A=%d", len(linksAB), len(linksB), len(linksA))
	}

	// Phase 1: A+B live.
	for _, tc := range append(setA(100), setB(130)...) {
		w.Observe(tc)
	}
	res, err := w.Advance(130)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Diag.Window
	if st.LinkBirths != len(linksAB) || st.LinkDeaths != 0 || st.ActiveLinks != len(linksAB) {
		t.Fatalf("phase 1: %+v (want %d births)", st, len(linksAB))
	}

	// Phase 2: A expires.
	res, err = w.Advance(170)
	if err != nil {
		t.Fatal(err)
	}
	st = res.Diag.Window
	wantDeaths := len(linksAB) - len(linksB)
	if st.LinkDeaths != wantDeaths || st.ActiveLinks != len(linksB) {
		t.Fatalf("phase 2: %+v (want %d deaths)", st, wantDeaths)
	}
	if st.IfaceFlaps != 0 {
		t.Fatalf("phase 2: premature flaps: %+v", st)
	}

	// Phase 3: everything expires; phase 4: A returns — every interface
	// of A that was inferred in phase 1 has now flapped.
	if _, err := w.Advance(300); err != nil {
		t.Fatal(err)
	}
	for _, tc := range setA(310) {
		w.Observe(tc)
	}
	res, err = w.Advance(310)
	if err != nil {
		t.Fatal(err)
	}
	st = res.Diag.Window
	if st.LinkBirths != len(linksAB)+len(linksA) {
		t.Fatalf("phase 4 births: %+v (want %d)", st, len(linksAB)+len(linksA))
	}
	if st.LinkDeaths != len(linksAB) {
		t.Fatalf("phase 4 deaths: %+v (want %d)", st, len(linksAB))
	}
	wantFlaps := len(ifaceSet(resA))
	if st.IfaceFlaps != wantFlaps {
		t.Fatalf("phase 4 flaps: %+v (want %d)", st, wantFlaps)
	}
	if st.FlapRate != float64(st.IfaceFlaps)/float64(st.Advances) {
		t.Fatalf("flap rate: %+v", st)
	}
	if !strings.Contains(st.String(), "iface_flaps=") {
		t.Fatalf("String(): %q", st.String())
	}
}

// TestWindowValidation pins the constructor's contract.
func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(WindowOptions{Length: 0, Config: windowConfig()}); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := NewWindow(WindowOptions{Length: 500 * time.Millisecond, Config: windowConfig()}); err == nil {
		t.Fatal("sub-second length accepted")
	}
	if _, err := NewWindow(WindowOptions{Length: time.Minute}); err == nil {
		t.Fatal("missing IP2AS accepted")
	}
	w, err := NewWindow(WindowOptions{Length: time.Minute, Config: windowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if w.Now() != 0 || w.Traces() != 0 {
		t.Fatalf("fresh window: now=%d traces=%d", w.Now(), w.Traces())
	}
	if st := w.Stats(); st != (WindowStats{}) {
		t.Fatalf("fresh window stats not zero: %+v", st)
	}
	for _, tc := range setA(50) {
		w.Observe(tc)
	}
	if st := w.Stats(); st.TracesActive != w.Traces() || st.TracesObserved != int64(len(setA(50))) {
		t.Fatalf("stats snapshot inconsistent: %+v (traces=%d)", st, w.Traces())
	}
}

// TestWindowNoRecomputeSharesResult pins that a contentless advance
// reuses the cached result (same backing arrays, fresh Diag stamp).
func TestWindowNoRecomputeSharesResult(t *testing.T) {
	cfg := windowConfig()
	w, err := NewWindow(WindowOptions{Length: time.Hour, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range setA(100) {
		w.Observe(tc)
	}
	r1, err := w.Advance(100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Advance(101)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Diag.Window.Recomputes != r1.Diag.Window.Recomputes {
		t.Fatalf("no-op advance recomputed: %+v", r2.Diag.Window)
	}
	if r2.Diag.Window.Advances != r1.Diag.Window.Advances+1 {
		t.Fatalf("advance not counted: %+v", r2.Diag.Window)
	}
	if len(r1.Inferences) > 0 && &r1.Inferences[0] != &r2.Inferences[0] {
		t.Fatal("no-op advance did not share the cached inference slice")
	}
}

// TestLiveAdjsUpdate drives random refcount churn through liveAdjs and
// checks every update against a from-scratch sort of the live keys,
// including that earlier results are never written by later updates.
func TestLiveAdjsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := make(map[trace.Adjacency]int)
	var live liveAdjs
	type kept struct{ got, copy []trace.Adjacency }
	var history []kept
	for round := 0; round < 200; round++ {
		for op := rng.Intn(12); op > 0; op-- {
			adj := trace.Adjacency{First: inet.Addr(rng.Intn(8)), Second: inet.Addr(rng.Intn(8))}
			delta := 1
			if counts[adj] > 0 && rng.Intn(2) == 0 {
				delta = -1
			}
			live.bump(counts, adj, delta)
		}
		want := make([]trace.Adjacency, 0, len(counts))
		for adj := range counts {
			want = append(want, adj)
		}
		slices.SortFunc(want, adjacencyCmp)
		got := live.update(counts)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: live keys %v, want %v", round, got, want)
		}
		history = append(history, kept{got, slices.Clone(got)})
	}
	for i, h := range history {
		if !slices.Equal(h.got, h.copy) {
			t.Fatalf("update %d was overwritten by a later update", i)
		}
	}
}

// TestWindowEvidenceMemoised pins the Evidence contract: one value per
// content state, replaced (never mutated) when the contents change.
func TestWindowEvidenceMemoised(t *testing.T) {
	w, err := NewWindow(WindowOptions{Length: 60 * time.Second, Config: windowConfig(), TrackMonitors: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range setA(100) {
		w.Observe(tc)
	}
	if _, err := w.Advance(100); err != nil {
		t.Fatal(err)
	}
	ev := w.Evidence()
	if w.Evidence() != ev {
		t.Fatal("Evidence rebuilt without a content change")
	}
	wantEv, _ := batchOver(t, setA(100), windowConfig(), true)
	for _, tc := range setB(130) {
		w.Observe(tc)
	}
	if w.Evidence() == ev {
		t.Fatal("Evidence not rebuilt after Observe")
	}
	if _, err := w.Advance(170); err != nil { // expires setA
		t.Fatal(err)
	}
	sameEvidence(t, "first evidence after later churn", ev, wantEv)
	wantB, _ := batchOver(t, setB(130), windowConfig(), true)
	sameEvidence(t, "after expiry", w.Evidence(), wantB)
}
