package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Sliding-window streaming inference (DESIGN.md §15). A Window holds
// the evidence of the traces whose timestamps fall inside a moving
// span: arrivals fold in through Observe, Advance(now) expires
// everything at or before now-Length and reruns inference when the
// contents changed. The incremental layer is refcounted evidence
// maintenance — each trace's deduped contributions (addresses seen,
// retained addresses, adjacencies, sanitisation outcomes) are counted
// in and counted out symmetrically, so the materialised Evidence at any
// position is exactly what a fresh Collector fed only the window's
// traces would produce, and the recomputed Result is byte-identical to
// a from-scratch batch run (the DiffWindow oracle in internal/audit/
// meta proves this at every window position). The materialised
// evidence is itself maintained incrementally: sorted live adjacency
// lists (global and per monitor) and the live address set are patched
// with only the keys whose refcount crossed zero since the last build.
// Inference re-runs over it in full — a RunEvidence over the live
// evidence — and an Advance over unchanged contents reuses the previous
// Result without recomputing.

// WindowOptions configures a sliding inference window.
type WindowOptions struct {
	// Length is the window span, at seconds granularity (trace
	// timestamps are Unix seconds). After Advance(now) the window holds
	// exactly the observed traces with Time in (now-Length, now] — plus
	// any arrivals stamped later than now, which enter the evidence
	// immediately and expire on schedule once the window passes them.
	// Required; must be at least one second.
	Length time.Duration
	// Config carries the inference inputs used at every recompute
	// (IP2AS required, as in a batch run). The audit checker, decode
	// and spill stat pointers all behave as in RunEvidence.
	Config Config
	// TrackMonitors maintains per-vantage-point attribution in the
	// materialised evidence (Evidence.Monitors), matching a collector
	// with TrackMonitors enabled — the input of the snapshot package's
	// monitor→evidence index.
	TrackMonitors bool
}

// WindowStats reports a window's lifetime and churn counters. All
// fields are plain values so the struct is comparable and travels
// inside Diagnostics.
type WindowStats struct {
	// Advances counts Advance calls; Recomputes counts the ones that
	// actually reran inference (contents changed since the last run).
	Advances   int `json:"advances"`
	Recomputes int `json:"recomputes"`
	// TracesObserved counts every trace handed to Observe;
	// TracesLate the ones dropped for arriving already expired
	// (Time at or before now-Length); TracesExpired the ones removed
	// by window movement. TracesActive is the current resident count.
	TracesObserved int64 `json:"traces_observed"`
	TracesLate     int64 `json:"traces_late"`
	TracesExpired  int64 `json:"traces_expired"`
	TracesActive   int   `json:"traces_active"`
	// LinkBirths and LinkDeaths count distinct high-confidence AS-pair
	// links appearing in and vanishing from consecutive recomputes;
	// ActiveLinks is the current count.
	LinkBirths  int `json:"link_births"`
	LinkDeaths  int `json:"link_deaths"`
	ActiveLinks int `json:"active_links"`
	// IfaceFlaps counts interface rebirths — an address that carried a
	// high-confidence inference, lost it in a later recompute, and
	// regained it in a still-later one. FlapRate is IfaceFlaps per
	// Advance.
	IfaceFlaps int     `json:"iface_flaps"`
	FlapRate   float64 `json:"flap_rate"`
}

// String renders the counters as a compact key=value line (the shape
// cmd/mapit -stats prints).
func (s WindowStats) String() string {
	return fmt.Sprintf("advances=%d recomputes=%d observed=%d late=%d expired=%d active=%d "+
		"link_births=%d link_deaths=%d active_links=%d iface_flaps=%d flap_rate=%.3f",
		s.Advances, s.Recomputes, s.TracesObserved, s.TracesLate, s.TracesExpired,
		s.TracesActive, s.LinkBirths, s.LinkDeaths, s.ActiveLinks, s.IfaceFlaps, s.FlapRate)
}

// windowEntry is one observed trace's deduplicatable contributions —
// everything apply needs to count the trace in or out of the evidence.
// The trace itself is not retained.
type windowEntry struct {
	monitor     string
	discarded   bool
	removedHops int
	// allAddrs are the responding addresses before sanitisation,
	// retAddrs the ones of the retained (sanitised) trace, adjs its
	// adjacencies. Multiplicity is harmless: apply counts each slice in
	// and out with the same entries, so refcounts stay consistent.
	allAddrs, retAddrs []inet.Addr
	adjs               []trace.Adjacency
}

// monWindow is one monitor's refcounted attribution.
type monWindow struct {
	traces int
	adjs   map[trace.Adjacency]int
	live   liveAdjs
}

// liveAdjs keeps the sorted key list of an adjacency refcount map
// without re-sorting it per build: touched collects the keys whose
// count crossed zero since sorted was last brought up to date.
type liveAdjs struct {
	sorted  []trace.Adjacency
	touched []trace.Adjacency
}

// bump adjusts adj's refcount in m and records a zero crossing.
func (l *liveAdjs) bump(m map[trace.Adjacency]int, adj trace.Adjacency, delta int) {
	if bumpCount(m, adj, delta) {
		l.touched = append(l.touched, adj)
	}
}

// update returns the sorted live keys of m in O(N + d log d) for d
// touched keys: the touched keys are sorted and merged into the previous
// list, each kept iff it is live now. The previous list is never written
// (earlier Evidence values share it); an untouched list is returned as is.
func (l *liveAdjs) update(m map[trace.Adjacency]int) []trace.Adjacency {
	if len(l.touched) == 0 {
		return l.sorted
	}
	slices.SortFunc(l.touched, adjacencyCmp)
	touched := slices.Compact(l.touched)
	old := l.sorted
	out := make([]trace.Adjacency, 0, len(m))
	i := 0
	for _, t := range touched {
		for i < len(old) && adjacencyCmp(old[i], t) < 0 {
			out = append(out, old[i])
			i++
		}
		if i < len(old) && old[i] == t {
			i++
		}
		if _, live := m[t]; live {
			out = append(out, t)
		}
	}
	out = append(out, old[i:]...)
	l.sorted, l.touched = out, l.touched[:0]
	return out
}

// Window is a sliding-window streaming inference engine. Not safe for
// concurrent use; callers serialise (mapitd holds its ingest lock).
type Window struct {
	opt    WindowOptions
	length int64 // seconds
	now    int64 // right edge of the last Advance

	// buckets is the expiry wheel: observed entries keyed by their
	// trace timestamp, removed wholesale when the window passes them.
	buckets map[int64][]windowEntry

	// Refcounted evidence of the current contents; adjLive and allLive
	// track the live keys of adjCount and allCount.
	adjCount                      map[trace.Adjacency]int
	allCount                      map[inet.Addr]int
	retCount                      map[inet.Addr]int
	mon                           map[string]*monWindow
	total, discarded, removedHops int
	adjLive                       liveAdjs
	allLive                       inet.AddrSet

	// ev memoises Evidence until the contents next change.
	ev *Evidence

	// dirty marks contents changed since the last recompute; last is
	// the cached Result reused by no-op Advances.
	dirty bool
	last  *Result

	wstats WindowStats
	// links and iface state feed the churn counters: links present at
	// the last recompute, interfaces currently inferred, and interfaces
	// that lost an inference and would flap by regaining one.
	links        map[uint64]struct{}
	ifacePresent map[inet.Addr]struct{}
	ifaceDied    map[inet.Addr]struct{}
}

// NewWindow validates the options and returns an empty window
// positioned at now=0 (the first Advance sets the real clock).
func NewWindow(opt WindowOptions) (*Window, error) {
	length := int64(opt.Length / time.Second)
	if length < 1 {
		return nil, errors.New("core: WindowOptions.Length must be at least one second")
	}
	if err := opt.Config.validate(); err != nil {
		return nil, err
	}
	w := &Window{
		opt:          opt,
		length:       length,
		buckets:      make(map[int64][]windowEntry),
		adjCount:     make(map[trace.Adjacency]int),
		allCount:     make(map[inet.Addr]int),
		retCount:     make(map[inet.Addr]int),
		allLive:      make(inet.AddrSet),
		links:        make(map[uint64]struct{}),
		ifacePresent: make(map[inet.Addr]struct{}),
		ifaceDied:    make(map[inet.Addr]struct{}),
	}
	if opt.TrackMonitors {
		w.mon = make(map[string]*monWindow)
	}
	return w, nil
}

// Now returns the window's right edge (the argument of the last
// Advance; zero before the first).
func (w *Window) Now() int64 { return w.now }

// Traces returns how many traces are currently resident.
func (w *Window) Traces() int { return w.total }

// Stats snapshots the lifetime counters.
func (w *Window) Stats() WindowStats {
	s := w.wstats
	s.TracesActive = w.total
	s.ActiveLinks = len(w.links)
	return s
}

// Observe folds one trace into the window. A trace stamped at or
// before now-Length is already expired — the Remove of a trace never
// Added — and is dropped and counted (TracesLate) without touching the
// evidence. Observe reports whether the trace entered the window and
// survived sanitisation.
func (w *Window) Observe(t trace.Trace) bool {
	w.wstats.TracesObserved++
	if t.Time <= w.now-w.length {
		w.wstats.TracesLate++
		return false
	}
	e := windowEntry{monitor: t.Monitor}
	for _, h := range t.Hops {
		if h.Responded() {
			e.allAddrs = append(e.allAddrs, h.Addr)
		}
	}
	clean, res := trace.Sanitize(t)
	e.discarded = res.Discarded
	e.removedHops = res.RemovedHops
	if !res.Discarded {
		e.adjs = trace.Adjacencies(clean, nil)
		for _, h := range clean.Hops {
			if h.Responded() {
				e.retAddrs = append(e.retAddrs, h.Addr)
			}
		}
	}
	w.apply(e, +1)
	w.buckets[t.Time] = append(w.buckets[t.Time], e)
	w.dirty = true
	return !e.discarded
}

// apply counts one entry's contributions in (delta=+1) or out (-1).
// The two directions are exactly symmetric, which is the whole
// correctness argument: presence in the materialised evidence is
// count>0, so any Observe/expire interleaving lands on the same state
// as a fresh collector over the surviving traces.
func (w *Window) apply(e windowEntry, delta int) {
	w.ev = nil
	w.total += delta
	w.removedHops += delta * e.removedHops
	if e.discarded {
		w.discarded += delta
	}
	for _, a := range e.allAddrs {
		if bumpCount(w.allCount, a, delta) {
			if delta > 0 {
				w.allLive.Add(a)
			} else {
				delete(w.allLive, a)
			}
		}
	}
	for _, a := range e.retAddrs {
		bumpCount(w.retCount, a, delta)
	}
	for _, adj := range e.adjs {
		w.adjLive.bump(w.adjCount, adj, delta)
	}
	if w.mon != nil && !e.discarded {
		acc := w.mon[e.monitor]
		if acc == nil {
			acc = &monWindow{adjs: make(map[trace.Adjacency]int)}
			w.mon[e.monitor] = acc
		}
		acc.traces += delta
		for _, adj := range e.adjs {
			acc.live.bump(acc.adjs, adj, delta)
		}
		if acc.traces == 0 {
			delete(w.mon, e.monitor)
		}
	}
}

// bumpCount adjusts a refcount, deleting the key at zero so map sizes
// track distinct live entries, and reports whether the count crossed
// zero (0→1 or 1→0).
func bumpCount[K comparable](m map[K]int, k K, delta int) bool {
	old := m[k]
	n := old + delta
	if n == 0 {
		delete(m, k)
		return true
	}
	m[k] = n
	return old == 0
}

// Advance moves the window's right edge to now, expires every entry
// stamped at or before now-Length, reruns inference if the contents
// changed (reusing the previous Result otherwise), and returns the
// Result with Diag.Window stamped. now must not move backwards.
func (w *Window) Advance(now int64) (*Result, error) {
	if now < w.now {
		return nil, fmt.Errorf("core: window Advance moved backwards (%d after %d)", now, w.now)
	}
	w.now = now
	cutoff := now - w.length
	var expired []int64
	for ts := range w.buckets {
		if ts <= cutoff {
			expired = append(expired, ts)
		}
	}
	slices.Sort(expired)
	for _, ts := range expired {
		for _, e := range w.buckets[ts] {
			w.apply(e, -1)
			w.wstats.TracesExpired++
		}
		delete(w.buckets, ts)
		w.dirty = true
	}
	w.wstats.Advances++
	if w.dirty || w.last == nil {
		res, err := RunEvidence(w.Evidence(), w.opt.Config)
		if err != nil {
			return nil, err
		}
		w.wstats.Recomputes++
		w.observeChurn(res)
		w.last = res
		w.dirty = false
	}
	w.wstats.TracesActive = w.total
	w.wstats.ActiveLinks = len(w.links)
	w.wstats.FlapRate = float64(w.wstats.IfaceFlaps) / float64(w.wstats.Advances)
	out := *w.last
	out.Diag.Window = w.wstats
	return &out, nil
}

// Evidence materialises the current contents, byte-identical to a new
// Collector fed only the resident traces. The value is memoised until
// the next Observe or expiry, so repeated calls return the same pointer,
// and its slices are shared with later builds: treat it as read-only.
// The window never writes storage it has handed out.
func (w *Window) Evidence() *Evidence {
	if w.ev != nil {
		return w.ev
	}
	ev := &Evidence{
		AllAddrs:    maps.Clone(w.allLive),
		Adjacencies: w.adjLive.update(w.adjCount),
		Stats: trace.Stats{
			TotalTraces:     w.total,
			DiscardedTraces: w.discarded,
			RemovedHops:     w.removedHops,
			DistinctAddrs:   len(w.allCount),
			RetainedAddrs:   len(w.retCount),
		},
	}
	if w.mon != nil {
		out := make([]MonitorEvidence, 0, len(w.mon))
		for name, acc := range w.mon {
			out = append(out, MonitorEvidence{Monitor: name, Traces: acc.traces,
				Adjacencies: acc.live.update(acc.adjs)})
		}
		slices.SortFunc(out, func(a, b MonitorEvidence) int {
			return strings.Compare(a.Monitor, b.Monitor)
		})
		ev.Monitors = out
	}
	w.ev = ev
	return ev
}

// observeChurn diffs a recompute's high-confidence output against the
// previous one: link births/deaths over canonical AS pairs, and
// interface flaps (an address regaining an inference it lost).
func (w *Window) observeChurn(res *Result) {
	cur := make(map[uint64]struct{})
	curIfaces := make(map[inet.Addr]struct{}, len(w.ifacePresent))
	for i := range res.Inferences {
		inf := &res.Inferences[i]
		if inf.Indirect || inf.Uncertain {
			continue
		}
		curIfaces[inf.Addr] = struct{}{}
		if inf.Local.IsZero() || inf.Connected.IsZero() {
			continue
		}
		a, b := inf.Link()
		cur[uint64(a)<<32|uint64(b)] = struct{}{}
	}
	for k := range cur {
		if _, ok := w.links[k]; !ok {
			w.wstats.LinkBirths++
		}
	}
	for k := range w.links {
		if _, ok := cur[k]; !ok {
			w.wstats.LinkDeaths++
		}
	}
	w.links = cur
	for a := range curIfaces {
		if _, died := w.ifaceDied[a]; died {
			w.wstats.IfaceFlaps++
			delete(w.ifaceDied, a)
		}
	}
	for a := range w.ifacePresent {
		if _, ok := curIfaces[a]; !ok {
			w.ifaceDied[a] = struct{}{}
		}
	}
	w.ifacePresent = curIfaces
}
