package core

import "mapit/internal/inet"

// Freezer is implemented by lookup sources that can compile themselves
// into an immutable, read-optimised form — bgp.Table, bgp.Chain and
// ixp.Directory all do. Run freezes the configured sources once, before
// the parallel state build, so every scan worker resolves against the
// compiled engine instead of walking a pointer trie.
type Freezer interface {
	Freeze()
}

// freeze compiles cfg's lookup sources if they know how. Freeze
// implementations are idempotent and race-safe, so repeated runs over a
// shared Config (parameter sweeps) pay the compile cost once.
func (c *Config) freeze() {
	if f, ok := c.IP2AS.(Freezer); ok {
		f.Freeze()
	}
	c.IXP.Freeze()
}

// memoHit is one cached resolution, including the miss flag: an
// unannounced address is as cacheable as an announced one.
type memoHit struct {
	asn inet.ASN
	ok  bool
}

// memoIP2AS caches every resolution of the wrapped source. Traceroute
// datasets reuse addresses heavily — the same interface appears in one
// adjacency per trace that crosses it — so resolving each distinct
// address once and serving the rest from a flat map beats even the
// compiled LPM engine for repeated hits. The baselines and verifiers
// use it through MemoIP2AS; a MAP-IT run needs no memo, because its
// state build resolves each interface address exactly once. A memo is
// never shared: it pins the source's answers at creation time, and
// IP2AS sources can thaw and mutate between runs. Not safe for
// concurrent use.
type memoIP2AS struct {
	src IP2AS
	m   map[inet.Addr]memoHit
}

func newMemoIP2AS(src IP2AS) *memoIP2AS {
	return &memoIP2AS{src: src, m: make(map[inet.Addr]memoHit)}
}

// Lookup resolves a through the memo, consulting the source only on
// the first sighting of an address.
func (m *memoIP2AS) Lookup(a inet.Addr) (inet.ASN, bool) {
	if h, ok := m.m[a]; ok {
		return h.asn, h.ok
	}
	asn, ok := m.src.Lookup(a)
	m.m[a] = memoHit{asn: asn, ok: ok}
	return asn, ok
}

// MemoIP2AS wraps src with a single-use resolution cache (see
// memoIP2AS). The baselines and verifiers resolve addresses per
// adjacency or per inference — the same interface address hundreds of
// times per corpus — and the memo collapses all but the first into a
// map hit. Create one per pass and discard it; the memo never
// invalidates. Not safe for concurrent use.
func MemoIP2AS(src IP2AS) IP2AS {
	return newMemoIP2AS(src)
}
