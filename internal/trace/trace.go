// Package trace holds the traceroute data model MAP-IT consumes: traces
// as sequences of replying interface addresses with reply metadata, the
// §4.1 sanitisation pipeline (quoted-TTL=0 hop removal, interface-cycle
// discard), and adjacency extraction feeding the neighbour sets of §4.3.
//
// The model is deliberately minimal — MAP-IT is passive and only needs
// (monitor, ordered hop addresses, quoted TTL) — so traces from any
// tool (scamper/Ark, Paris traceroute, plain traceroute) map onto it.
package trace

import (
	"mapit/internal/inet"
)

// Hop is one probe's reply within a trace.
type Hop struct {
	// Addr is the replying interface address; zero means no reply
	// (a "null hop", rendered as * by traceroute).
	Addr inet.Addr
	// QuotedTTL is the TTL of the probe packet as quoted in the ICMP
	// reply. Normally 1. Zero flags the buggy-forwarder artifact of
	// §4.1: a router forwarded a TTL=1 packet instead of answering, and
	// the next router replied quoting TTL 0. Negative means unknown
	// (treated as normal).
	QuotedTTL int8
}

// Responded reports whether the hop carries a reply.
func (h Hop) Responded() bool { return !h.Addr.IsZero() }

// Trace is one traceroute: the ordered replies to probes with increasing
// TTL from a monitor toward a destination.
type Trace struct {
	// Monitor identifies the vantage point that ran the trace.
	Monitor string
	// Dst is the probed destination address.
	Dst inet.Addr
	// Time is the Unix timestamp (seconds) at which the trace was run;
	// zero means untimed. The inference algorithm never reads it — it
	// feeds the sliding-window streaming mode (core.Window), travels in
	// the MTRC v4 binary format and the JSONL "time" field, and is
	// silently dropped by the timestampless v2/v3 formats.
	Time int64
	// Hops are the replies in TTL order, starting at TTL=1. A trace may
	// stop early (destination reached or gap limit) — incomplete paths
	// still contribute adjacencies (§3.2).
	Hops []Hop
}

// NewTrace builds a trace from plain addresses with default reply
// metadata (QuotedTTL=1); zero addresses become null hops.
func NewTrace(monitor string, dst inet.Addr, addrs ...inet.Addr) Trace {
	hops := make([]Hop, len(addrs))
	for i, a := range addrs {
		hops[i] = Hop{Addr: a, QuotedTTL: 1}
	}
	return Trace{Monitor: monitor, Dst: dst, Hops: hops}
}

// Addrs returns the responding addresses of the trace in order,
// preserving position with zero entries for null hops.
func (t Trace) Addrs() []inet.Addr {
	out := make([]inet.Addr, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.Addr
	}
	return out
}

// SanitizeResult describes what Sanitize did to one trace.
type SanitizeResult struct {
	// Discarded is true when the whole trace must be dropped (an
	// interface cycle was found, §4.1).
	Discarded bool
	// RemovedHops counts hops removed for quoting TTL 0.
	RemovedHops int
}

// Sanitize applies §4.1 to a single trace, in order:
//
//  1. Hops whose reply quotes TTL=0 (buggy routers forwarding TTL=1
//     packets) are removed; to avoid manufacturing a false adjacency
//     across the unseen router, the removed hop is replaced by a null
//     hop rather than spliced out.
//  2. If the remaining responding addresses contain an interface cycle —
//     the same address twice, separated by at least one other address
//     (per-packet load balancing or a transient route change) — the
//     whole trace is discarded.
//
// Sanitize returns the cleaned trace (sharing no hop storage with the
// input when hops were removed) and a result describing the actions.
func Sanitize(t Trace) (Trace, SanitizeResult) {
	var res SanitizeResult
	clean := t
	for i, h := range t.Hops {
		if h.Responded() && h.QuotedTTL == 0 {
			if clean.Hops != nil && &clean.Hops[0] == &t.Hops[0] {
				clean.Hops = append([]Hop(nil), t.Hops...)
			}
			clean.Hops[i] = Hop{QuotedTTL: 1}
			res.RemovedHops++
		}
	}
	if HasCycle(clean) {
		res.Discarded = true
		return Trace{}, res
	}
	return clean, res
}

// HasCycle reports whether the trace contains an interface cycle: the
// same responding address at two positions with at least one other
// responding address strictly between them (§4.1 fn5, after Viger et
// al.). Immediate repeats (the same address at consecutive responding
// positions) are not cycles — they are the NAT/rate-limit signature the
// stub heuristic relies on.
//
// Traces of up to cycleStackLen responders are checked without
// allocating: the responders sit in a stack array and each new one scans
// it backwards for its latest sighting, at most 2016 comparisons. Longer
// traces fall back to a map, which keeps the 1024-hop cap linear.
func HasCycle(t Trace) bool {
	var seen [cycleStackLen]inet.Addr
	n := 0
	for _, h := range t.Hops {
		if !h.Responded() {
			continue
		}
		if n == len(seen) {
			return hasCycleMap(t)
		}
		for j := n - 1; j >= 0; j-- {
			if seen[j] == h.Addr {
				if n-j > 1 {
					return true
				}
				break
			}
		}
		seen[n] = h.Addr
		n++
	}
	return false
}

// cycleStackLen is the responder count up to which HasCycle scans a
// stack array instead of building a map.
const cycleStackLen = 64

// hasCycleMap is HasCycle for traces with more than cycleStackLen
// responders: one map from address to its latest responding position.
func hasCycleMap(t Trace) bool {
	lastSeen := make(map[inet.Addr]int, len(t.Hops))
	// respIdx numbers only the responding hops so that null hops do not
	// count as separators (an unresponsive router between two sightings
	// of the same address tells us nothing).
	respIdx := 0
	for _, h := range t.Hops {
		if !h.Responded() {
			continue
		}
		if prev, ok := lastSeen[h.Addr]; ok && respIdx-prev > 1 {
			return true
		}
		lastSeen[h.Addr] = respIdx
		respIdx++
	}
	return false
}

// Adjacency is an ordered pair of interface addresses observed at
// consecutive responding hops in some trace: Second was seen exactly one
// hop after First.
type Adjacency struct {
	First, Second inet.Addr
}

// Adjacencies appends the trace's adjacent address pairs to dst and
// returns it. Pairs are produced only for consecutive hops that both
// responded (null hops break adjacency, §4.3), skipping self-pairs
// (immediate repeats carry no topology) and pairs involving
// special-purpose (private/shared) addresses, which the paper excludes
// from neighbour sets.
func Adjacencies(t Trace, dst []Adjacency) []Adjacency {
	for i := 0; i+1 < len(t.Hops); i++ {
		a, b := t.Hops[i], t.Hops[i+1]
		if !a.Responded() || !b.Responded() || a.Addr == b.Addr {
			continue
		}
		if inet.IsSpecial(a.Addr) || inet.IsSpecial(b.Addr) {
			continue
		}
		dst = append(dst, Adjacency{First: a.Addr, Second: b.Addr})
	}
	return dst
}
