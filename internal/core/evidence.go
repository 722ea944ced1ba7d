package core

import (
	"cmp"
	"maps"
	"slices"
	"strings"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Evidence is the distilled input MAP-IT actually consumes: the set of
// observed addresses (for the §4.2 other-side heuristic), the unique
// adjacencies (for the §4.3 neighbour sets) and the sanitisation
// statistics. A month of Ark data is ~733M traces but only millions of
// unique adjacencies, so Evidence is what should be held in memory —
// not the traces.
type Evidence struct {
	AllAddrs    inet.AddrSet
	Adjacencies []trace.Adjacency
	Stats       trace.Stats

	// Monitors is the optional per-vantage-point attribution of the
	// evidence, sorted by monitor name. Nil unless the collector had
	// TrackMonitors enabled — the algorithm never reads it; it feeds
	// the snapshot package's monitor→evidence query index.
	Monitors []MonitorEvidence
}

// MonitorEvidence is one vantage point's slice of the evidence: how many
// of its traces survived sanitisation and the unique adjacencies they
// contributed (sorted in the canonical (First, Second) order).
type MonitorEvidence struct {
	Monitor     string
	Traces      int
	Adjacencies []trace.Adjacency
}

// monitorAcc accumulates one monitor's attribution during collection.
type monitorAcc struct {
	traces int
	adjs   map[trace.Adjacency]struct{}
}

// monitorEvidence finalises an attribution map into the sorted exported
// form; nil in, nil out.
func monitorEvidence(m map[string]*monitorAcc) []MonitorEvidence {
	if m == nil {
		return nil
	}
	out := make([]MonitorEvidence, 0, len(m))
	for name, acc := range m {
		adjs := make([]trace.Adjacency, 0, len(acc.adjs))
		for adj := range acc.adjs {
			adjs = append(adjs, adj)
		}
		slices.SortFunc(adjs, adjacencyCmp)
		out = append(out, MonitorEvidence{Monitor: name, Traces: acc.traces, Adjacencies: adjs})
	}
	slices.SortFunc(out, func(a, b MonitorEvidence) int {
		return strings.Compare(a.Monitor, b.Monitor)
	})
	return out
}

// recordMonitor files one retained trace's adjacencies under its
// monitor.
func recordMonitor(m map[string]*monitorAcc, monitor string, adjs []trace.Adjacency) {
	acc := m[monitor]
	if acc == nil {
		acc = &monitorAcc{adjs: make(map[trace.Adjacency]struct{})}
		m[monitor] = acc
	}
	acc.traces++
	for _, adj := range adjs {
		acc.adjs[adj] = struct{}{}
	}
}

// EvidenceFrom distils a sanitised in-memory dataset.
func EvidenceFrom(s *trace.Sanitized) *Evidence {
	c := NewCollector()
	c.addSanitized(s)
	return c.Evidence()
}

// Collector accumulates Evidence incrementally: feed it traces one at a
// time (Add sanitises per §4.1) and it never retains them. It is the
// serial in-memory reference the ParallelCollector — the production
// ingest path, and the only one that spills — is checked against.
type Collector struct {
	allAddrs      inet.AddrSet
	retainedAddrs inet.AddrSet
	adjacencies   map[trace.Adjacency]struct{}
	stats         trace.Stats
	scratch       []trace.Adjacency

	// sortScratch is the reusable key-extraction/sort buffer of the
	// in-memory Evidence path; the returned evidence never aliases it.
	sortScratch []trace.Adjacency

	// monitors is the opt-in per-vantage-point attribution (see
	// TrackMonitors); nil when tracking is off.
	monitors map[string]*monitorAcc
}

// NewCollector returns an empty in-memory collector.
func NewCollector() *Collector {
	return &Collector{
		allAddrs:      make(inet.AddrSet),
		retainedAddrs: make(inet.AddrSet),
		adjacencies:   make(map[trace.Adjacency]struct{}),
	}
}

// TrackMonitors enables per-monitor evidence attribution: finalised
// evidence carries Evidence.Monitors, the sorted per-vantage-point view
// the snapshot query index is built from. Call it before the first Add.
func (c *Collector) TrackMonitors() {
	if c.monitors == nil {
		c.monitors = make(map[string]*monitorAcc)
	}
}

// Add sanitises one trace (§4.1) and accumulates its evidence. It
// reports whether the trace was retained.
func (c *Collector) Add(t trace.Trace) bool {
	c.stats.TotalTraces++
	for _, h := range t.Hops {
		if h.Responded() {
			c.allAddrs.Add(h.Addr)
		}
	}
	clean, res := trace.Sanitize(t)
	c.stats.RemovedHops += res.RemovedHops
	if res.Discarded {
		c.stats.DiscardedTraces++
		return false
	}
	c.scratch = trace.Adjacencies(clean, c.scratch[:0])
	for _, adj := range c.scratch {
		c.adjacencies[adj] = struct{}{}
	}
	if c.monitors != nil {
		recordMonitor(c.monitors, t.Monitor, c.scratch)
	}
	for _, h := range clean.Hops {
		if h.Responded() {
			c.retainedAddrs.Add(h.Addr)
		}
	}
	return true
}

// addSanitized ingests an already-sanitised dataset without re-running
// the sanitiser.
func (c *Collector) addSanitized(s *trace.Sanitized) {
	for a := range s.AllAddrs {
		c.allAddrs.Add(a)
	}
	for _, t := range s.Retained {
		c.scratch = trace.Adjacencies(t, c.scratch[:0])
		for _, adj := range c.scratch {
			c.adjacencies[adj] = struct{}{}
		}
		if c.monitors != nil {
			recordMonitor(c.monitors, t.Monitor, c.scratch)
		}
		for _, h := range t.Hops {
			if h.Responded() {
				c.retainedAddrs.Add(h.Addr)
			}
		}
	}
	c.stats = s.Stats
}

// Traces returns how many traces the collector has seen.
func (c *Collector) Traces() int { return c.stats.TotalTraces }

// Evidence finalises the collector. The collector remains usable; the
// returned adjacency slice is sorted for determinism, and the address
// set is a snapshot copy so later Adds cannot mutate returned evidence.
// The key extraction and sort run in a scratch buffer reused across
// calls; the returned slice is a fresh exact-size copy.
func (c *Collector) Evidence() *Evidence {
	c.sortScratch = c.sortScratch[:0]
	for adj := range c.adjacencies {
		c.sortScratch = append(c.sortScratch, adj)
	}
	slices.SortFunc(c.sortScratch, adjacencyCmp)
	adjs := make([]trace.Adjacency, len(c.sortScratch))
	copy(adjs, c.sortScratch)
	stats := c.stats
	stats.DistinctAddrs = len(c.allAddrs)
	stats.RetainedAddrs = len(c.retainedAddrs)
	return &Evidence{
		AllAddrs:    maps.Clone(c.allAddrs),
		Adjacencies: adjs,
		Stats:       stats,
		Monitors:    monitorEvidence(c.monitors),
	}
}

// adjacencyCmp orders adjacencies by (First, Second) — the canonical
// order of Evidence.Adjacencies.
func adjacencyCmp(a, b trace.Adjacency) int {
	if c := cmp.Compare(a.First, b.First); c != 0 {
		return c
	}
	return cmp.Compare(a.Second, b.Second)
}

// addrCmp orders addresses numerically — the order of spilled address
// runs.
func addrCmp(a, b inet.Addr) int { return cmp.Compare(a, b) }
