// Package snapshot compiles a finished MAP-IT run into an immutable,
// cache-friendly query engine. A *core.Result answers "which ASes does
// this interface connect" by linear scan; operational topology work
// (per-address, per-AS-pair, per-monitor queries at service volume)
// needs the read path to be as compiled as the write path already is.
//
// Build flattens the inference list into columnar slabs — parallel
// arrays of addresses, interned int32 ASN ids, and packed flag bytes —
// and precomputes three indexes over them:
//
//   - address → inference rows, through the same 16-8-8 multibit stride
//     table the LPM engine uses (iptrie.CompileHosts): at most three
//     flat array reads to the row span, zero allocations;
//   - AS pair → link interfaces, as sorted uint64-keyed postings with
//     binary-search range lookup;
//   - monitor → contributed evidence, as name-sorted adjacency postings
//     fed from Evidence.Monitors (collected under
//     Collector.TrackMonitors).
//
// A Snapshot is immutable after Build: any number of goroutines may
// query it concurrently with no synchronisation. Handle adds the
// copy-on-write publication protocol — a live ingest loop builds a new
// snapshot off to the side and Swaps it in while readers keep draining
// the old one. See DESIGN.md §13.
package snapshot

import (
	"slices"

	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/iptrie"
	"mapit/internal/trace"
)

// Snapshot is the compiled read-only view of one run's result and
// (optionally) its evidence. The zero value is not usable; call Build.
type Snapshot struct {
	// Columnar inference slabs, one row per Result.Inferences record.
	// Rows are grouped by address (stably preserving the result's
	// record order within an address), so every per-address answer is
	// one contiguous span.
	addr    []inet.Addr
	other   []inet.Addr
	localID []int32
	connID  []int32
	flags   []uint8

	// asns is the dense ASN intern table; localID/connID index it.
	asns []inet.ASN

	// Address index: addrIndex maps an address to its dense id i (the
	// /32 stride table answers in ≤3 array reads); rows
	// [spanStart[i], spanStart[i+1]) are that address's records.
	addrIndex *iptrie.Compiled[int32]
	spanStart []int32

	// High-confidence view, prebuilt: the non-indirect, non-uncertain
	// records in result order.
	hc []core.Inference

	// AS-pair link index: linkKeys holds every distinct unordered pair
	// (packed a<<32|b with a ≤ b, both nonzero) sorted ascending;
	// postings [linkStart[k], linkStart[k+1]) of linkRows are the row
	// ids of the high-confidence inferences evidencing pair k, in
	// ascending address order.
	linkKeys  []uint64
	linkStart []int32
	linkRows  []int32

	// Monitor index: names sorted ascending; monitor m contributed
	// monTraces[m] retained traces and the adjacencies
	// [monStart[m], monStart[m+1]) of monAdj.
	monitors  []string
	monTraces []int32
	monStart  []int32
	monAdj    []trace.Adjacency
}

// Flag bits of the flags column; bit 0 is the direction.
const (
	flagBackward  = 1 << 0
	flagUncertain = 1 << 1
	flagStub      = 1 << 2
	flagIndirect  = 1 << 3
)

// Build compiles a result (and, optionally, the evidence it was run
// from) into a snapshot. The inputs are only read; ev may be nil, in
// which case the monitor index is empty. Inference rows are grouped by
// address with the result's own record order preserved inside each
// group, so for the sorted lists Result produces every lookup answers
// in Result.ByAddr order.
func Build(r *core.Result, ev *core.Evidence) *Snapshot {
	n := len(r.Inferences)
	s := &Snapshot{
		addr:    make([]inet.Addr, n),
		other:   make([]inet.Addr, n),
		localID: make([]int32, n),
		connID:  make([]int32, n),
		flags:   make([]uint8, n),
	}

	// Group rows by address, stably: row order within one address is
	// the result's record order. Result.Inferences is already sorted by
	// (addr, dir), making this a no-op pass, but Build does not rely on
	// it — stage-hook snapshots and hand-built results compile too.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		x, y := r.Inferences[a].Addr, r.Inferences[b].Addr
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})

	intern := make(map[inet.ASN]int32)
	internID := func(a inet.ASN) int32 {
		id, ok := intern[a]
		if !ok {
			id = int32(len(s.asns))
			s.asns = append(s.asns, a)
			intern[a] = id
		}
		return id
	}

	hcCount := 0
	for row, src := range order {
		inf := &r.Inferences[src]
		s.addr[row] = inf.Addr
		s.other[row] = inf.OtherSide
		s.localID[row] = internID(inf.Local)
		s.connID[row] = internID(inf.Connected)
		var f uint8
		if inf.Dir == core.Backward {
			f |= flagBackward
		}
		if inf.Uncertain {
			f |= flagUncertain
		}
		if inf.Stub {
			f |= flagStub
		}
		if inf.Indirect {
			f |= flagIndirect
		}
		s.flags[row] = f
		if f&(flagUncertain|flagIndirect) == 0 {
			hcCount++
		}
	}

	s.buildAddrIndex()
	s.buildHighConfidence(hcCount)
	s.buildLinkIndex()
	s.buildMonitorIndex(ev)
	return s
}

// buildAddrIndex compiles the distinct-address stride table and the
// per-address row spans from the grouped addr column.
func (s *Snapshot) buildAddrIndex() {
	distinct := 0
	for i, a := range s.addr {
		if i == 0 || s.addr[i-1] != a {
			distinct++
		}
	}
	addrs := make([]inet.Addr, 0, distinct)
	ids := make([]int32, 0, distinct)
	s.spanStart = make([]int32, 0, distinct+1)
	for i, a := range s.addr {
		if i == 0 || s.addr[i-1] != a {
			ids = append(ids, int32(len(addrs)))
			addrs = append(addrs, a)
			s.spanStart = append(s.spanStart, int32(i))
		}
	}
	s.spanStart = append(s.spanStart, int32(len(s.addr)))
	s.addrIndex = iptrie.CompileHosts(addrs, ids)
}

// buildHighConfidence materialises the prebuilt headline list.
func (s *Snapshot) buildHighConfidence(count int) {
	s.hc = make([]core.Inference, 0, count)
	for row := range s.addr {
		if s.flags[row]&(flagUncertain|flagIndirect) == 0 {
			s.hc = append(s.hc, s.inference(int32(row)))
		}
	}
}

// buildLinkIndex compacts the high-confidence rows with two known
// endpoints into sorted per-pair postings.
func (s *Snapshot) buildLinkIndex() {
	type posting struct {
		key uint64
		row int32
	}
	var postings []posting
	for row := range s.addr {
		if s.flags[row]&(flagUncertain|flagIndirect) != 0 {
			continue
		}
		local, conn := s.asns[s.localID[row]], s.asns[s.connID[row]]
		if local.IsZero() || conn.IsZero() {
			continue
		}
		postings = append(postings, posting{linkKey(local, conn), int32(row)})
	}
	// Rows are already in ascending address order, so a stable sort by
	// key keeps each pair's interfaces sorted by address — the order
	// Result.Links reports.
	slices.SortStableFunc(postings, func(a, b posting) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	for i, p := range postings {
		if i == 0 || postings[i-1].key != p.key {
			s.linkKeys = append(s.linkKeys, p.key)
			s.linkStart = append(s.linkStart, int32(i))
		}
		s.linkRows = append(s.linkRows, p.row)
	}
	s.linkStart = append(s.linkStart, int32(len(postings)))
}

// buildMonitorIndex flattens Evidence.Monitors (already sorted by name
// with sorted adjacency sets) into postings.
func (s *Snapshot) buildMonitorIndex(ev *core.Evidence) {
	if ev == nil || len(ev.Monitors) == 0 {
		s.monStart = []int32{0}
		return
	}
	s.monitors = make([]string, len(ev.Monitors))
	s.monTraces = make([]int32, len(ev.Monitors))
	s.monStart = make([]int32, 0, len(ev.Monitors)+1)
	total := 0
	for _, m := range ev.Monitors {
		total += len(m.Adjacencies)
	}
	s.monAdj = make([]trace.Adjacency, 0, total)
	for i, m := range ev.Monitors {
		s.monitors[i] = m.Monitor
		s.monTraces[i] = int32(m.Traces)
		s.monStart = append(s.monStart, int32(len(s.monAdj)))
		s.monAdj = append(s.monAdj, m.Adjacencies...)
	}
	s.monStart = append(s.monStart, int32(len(s.monAdj)))
}

// linkKey packs an unordered AS pair into its sort key.
func linkKey(a, b inet.ASN) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// inference materialises one row back into the exported record form.
func (s *Snapshot) inference(row int32) core.Inference {
	f := s.flags[row]
	return core.Inference{
		Addr:      s.addr[row],
		Dir:       core.Direction(f & flagBackward),
		Local:     s.asns[s.localID[row]],
		Connected: s.asns[s.connID[row]],
		OtherSide: s.other[row],
		Uncertain: f&flagUncertain != 0,
		Stub:      f&flagStub != 0,
		Indirect:  f&flagIndirect != 0,
	}
}

// Len returns the number of inference rows.
func (s *Snapshot) Len() int { return len(s.addr) }

// AddrCount returns the number of distinct inferred interface addresses.
func (s *Snapshot) AddrCount() int { return len(s.spanStart) - 1 }

// LinkCount returns the number of distinct high-confidence AS pairs.
func (s *Snapshot) LinkCount() int { return len(s.linkKeys) }

// MonitorCount returns the number of monitors in the evidence index.
func (s *Snapshot) MonitorCount() int { return len(s.monitors) }

// Rows is a zero-allocation view of the consecutive inference rows one
// address lookup resolved to. The zero value is an empty view.
type Rows struct {
	s      *Snapshot
	lo, hi int32
}

// Len returns the number of records in the view.
func (r Rows) Len() int { return int(r.hi - r.lo) }

// At materialises record i of the view.
func (r Rows) At(i int) core.Inference { return r.s.inference(r.lo + int32(i)) }

// Lookup resolves an address to its inference records — the compiled
// form of Result.ByAddr. The hot path is three flat array reads and
// never allocates; a miss returns an empty view.
func (s *Snapshot) Lookup(a inet.Addr) Rows {
	id, ok := s.addrIndex.Lookup(a)
	if !ok {
		return Rows{}
	}
	return Rows{s: s, lo: s.spanStart[id], hi: s.spanStart[id+1]}
}

// HighConfidence returns the prebuilt non-uncertain direct inference
// list — Result.HighConfidence without the per-call copy. The slice is
// shared by every caller: treat it as read-only.
func (s *Snapshot) HighConfidence() []core.Inference { return s.hc }

// Link is a zero-allocation view of one AS pair's link interfaces. The
// zero value is an empty view.
type Link struct {
	s      *Snapshot
	lo, hi int32
}

// Len returns the number of evidencing interfaces.
func (l Link) Len() int { return int(l.hi - l.lo) }

// Addr returns the address of interface i, in ascending order.
func (l Link) Addr(i int) inet.Addr { return l.s.addr[l.s.linkRows[l.lo+int32(i)]] }

// At materialises the full inference record behind interface i.
func (l Link) At(i int) core.Inference { return l.s.inference(l.s.linkRows[l.lo+int32(i)]) }

// Links resolves an AS pair (in either order) to the high-confidence
// link interfaces connecting them — the compiled, single-pair form of
// Result.Links. Binary search over the packed key column; no
// allocations. An unknown pair returns an empty view.
func (s *Snapshot) Links(a, b inet.ASN) Link {
	k, ok := slices.BinarySearch(s.linkKeys, linkKey(a, b))
	if !ok {
		return Link{}
	}
	return Link{s: s, lo: s.linkStart[k], hi: s.linkStart[k+1]}
}

// EachLink visits every distinct AS pair in ascending (A, B) order.
// Returning false stops the walk.
func (s *Snapshot) EachLink(fn func(a, b inet.ASN, l Link) bool) {
	for k, key := range s.linkKeys {
		l := Link{s: s, lo: s.linkStart[k], hi: s.linkStart[k+1]}
		if !fn(inet.ASN(key>>32), inet.ASN(key&0xffffffff), l) {
			return
		}
	}
}

// Monitor is a zero-allocation view of one vantage point's contributed
// evidence. The zero value reports nothing.
type Monitor struct {
	s      *Snapshot
	lo, hi int32
	traces int32
}

// Traces returns how many of the monitor's traces survived sanitisation.
func (m Monitor) Traces() int { return int(m.traces) }

// Len returns the number of unique adjacencies the monitor contributed.
func (m Monitor) Len() int { return int(m.hi - m.lo) }

// At returns contributed adjacency i, in (First, Second) order.
func (m Monitor) At(i int) trace.Adjacency { return m.s.monAdj[m.lo+int32(i)] }

// MonitorEvidence resolves a monitor name to its contributed evidence.
// Binary search over the sorted name column; no allocations. The second
// return is false when the monitor is unknown (or the snapshot was
// built without monitor-tracked evidence).
func (s *Snapshot) MonitorEvidence(name string) (Monitor, bool) {
	i, ok := slices.BinarySearch(s.monitors, name)
	if !ok {
		return Monitor{}, false
	}
	return Monitor{s: s, lo: s.monStart[i], hi: s.monStart[i+1], traces: s.monTraces[i]}, true
}

// MonitorName returns the name of monitor i in index (ascending) order,
// for enumerating the index alongside MonitorCount.
func (s *Snapshot) MonitorName(i int) string { return s.monitors[i] }
