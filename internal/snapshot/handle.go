package snapshot

import (
	"sync"
	"sync/atomic"
)

// published pairs a snapshot with the version its publication was
// assigned. The pair is immutable and swapped atomically, so a reader
// always observes a snapshot together with its own version — never the
// version of a concurrent publication.
type published struct {
	s       *Snapshot
	version uint64
}

// Handle is an atomic copy-on-write publication point for snapshots: a
// writer builds a new snapshot off to the side and Swaps it in; readers
// Load whatever is current and keep querying it unperturbed — a loaded
// snapshot is immutable, so nothing a reader holds is ever written
// again. Every Swap is assigned a version from a monotonically
// increasing counter (starting at 1), the cache-validation token of the
// serving layer: an HTTP response tagged with the version it was
// computed from stays provably consistent, and a paginating client can
// detect that the snapshot changed under its cursor. The zero value is
// an empty handle (Load returns nil and version 0 until the first
// publication).
type Handle struct {
	p atomic.Pointer[published]
	// mu serialises writers only: it makes version assignment and
	// pointer publication one step, so versions observed through
	// LoadVersion are monotone even under concurrent Swaps. Readers
	// never take it.
	mu  sync.Mutex
	ver uint64
}

// Load returns the currently published snapshot, or nil before the
// first Swap. Safe to call concurrently with Swap; never blocks.
func (h *Handle) Load() *Snapshot {
	s, _ := h.LoadVersion()
	return s
}

// LoadVersion returns the currently published snapshot together with
// the version its publication was assigned, or (nil, 0) before the
// first Swap. The pair is consistent: the version is the one assigned
// when exactly this snapshot was swapped in.
func (h *Handle) LoadVersion() (*Snapshot, uint64) {
	pub := h.p.Load()
	if pub == nil {
		return nil, 0
	}
	return pub.s, pub.version
}

// Swap publishes s (which may be nil, unpublishing) and returns the
// previous snapshot. Readers that loaded the previous snapshot keep a
// consistent view; new Loads see s under a freshly assigned version.
func (h *Handle) Swap(s *Snapshot) *Snapshot {
	h.mu.Lock()
	h.ver++
	prev := h.p.Swap(&published{s: s, version: h.ver})
	h.mu.Unlock()
	if prev == nil {
		return nil
	}
	return prev.s
}

// Version returns the version of the current publication, or 0 before
// the first Swap. Equivalent to the second return of LoadVersion.
func (h *Handle) Version() uint64 {
	_, v := h.LoadVersion()
	return v
}
