package trace

import "mapit/internal/inet"

// Dataset is an in-memory traceroute collection.
type Dataset struct {
	Traces []Trace
}

// Stats summarises a sanitisation run, mirroring the dataset statistics
// the paper reports (§4.1, §5): how many traces were discarded for
// cycles, and what fraction of distinct addresses survived.
type Stats struct {
	TotalTraces     int
	DiscardedTraces int
	RemovedHops     int
	// DistinctAddrs counts distinct responding addresses across all
	// traces, including discarded ones.
	DistinctAddrs int
	// RetainedAddrs counts distinct responding addresses across retained
	// traces only. The paper retains 89.1% of distinct addresses.
	RetainedAddrs int
}

// RetainedTraceFraction is the share of traces kept (97.3% in the paper).
func (s Stats) RetainedTraceFraction() float64 {
	if s.TotalTraces == 0 {
		return 0
	}
	return float64(s.TotalTraces-s.DiscardedTraces) / float64(s.TotalTraces)
}

// RetainedAddrFraction is the share of distinct addresses kept.
func (s Stats) RetainedAddrFraction() float64 {
	if s.DistinctAddrs == 0 {
		return 0
	}
	return float64(s.RetainedAddrs) / float64(s.DistinctAddrs)
}

// Sanitized is the output of Dataset.Sanitize.
type Sanitized struct {
	// Retained holds the cleaned traces that survived.
	Retained []Trace
	// AllAddrs is every responding address seen in any trace, including
	// discarded ones — §4.2 runs the other-side heuristic over this set.
	AllAddrs inet.AddrSet
	Stats    Stats
}

// Sanitize runs §4.1 over the whole dataset serially. Streaming and
// parallel sanitisation live in core's collectors, which distil
// evidence without retaining traces.
func (d *Dataset) Sanitize() *Sanitized {
	out := &Sanitized{
		Retained: make([]Trace, 0, len(d.Traces)),
		AllAddrs: make(inet.AddrSet),
	}
	retainedAddrs := make(inet.AddrSet)
	out.Stats.TotalTraces = len(d.Traces)
	for _, t := range d.Traces {
		for _, h := range t.Hops {
			if h.Responded() {
				out.AllAddrs.Add(h.Addr)
			}
		}
		clean, res := Sanitize(t)
		out.Stats.RemovedHops += res.RemovedHops
		if res.Discarded {
			out.Stats.DiscardedTraces++
			continue
		}
		for _, h := range clean.Hops {
			if h.Responded() {
				retainedAddrs.Add(h.Addr)
			}
		}
		out.Retained = append(out.Retained, clean)
	}
	out.Stats.DistinctAddrs = len(out.AllAddrs)
	out.Stats.RetainedAddrs = len(retainedAddrs)
	return out
}

// Adjacencies extracts every adjacency from the retained traces.
func (s *Sanitized) Adjacencies() []Adjacency {
	var out []Adjacency
	for _, t := range s.Retained {
		out = Adjacencies(t, out)
	}
	return out
}
