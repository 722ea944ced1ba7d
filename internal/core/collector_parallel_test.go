package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// synthTraces builds a deterministic corpus large enough to exercise the
// batching and worker paths: a mix of clean traces, quoted-TTL-0 hops,
// null hops, immediate repeats and interface cycles.
func synthTraces(n int) []trace.Trace {
	rng := rand.New(rand.NewSource(42))
	addr := func() inet.Addr { return inet.Addr(0x08000000 + rng.Intn(1<<16)) }
	traces := make([]trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		hops := make([]trace.Hop, 0, 8)
		for j := 0; j < 3+rng.Intn(6); j++ {
			h := trace.Hop{Addr: addr(), QuotedTTL: 1}
			switch rng.Intn(12) {
			case 0:
				h.Addr = 0 // null hop
			case 1:
				h.QuotedTTL = 0 // buggy forwarder, removed by §4.1
			case 2:
				if len(hops) > 0 {
					h.Addr = hops[len(hops)-1].Addr // immediate repeat
				}
			case 3:
				if len(hops) > 1 {
					h.Addr = hops[0].Addr // likely interface cycle
				}
			}
			hops = append(hops, h)
		}
		traces = append(traces, trace.Trace{
			Monitor: fmt.Sprintf("mon-%d", rng.Intn(8)),
			Dst:     addr(),
			Hops:    hops,
		})
	}
	return traces
}

// The parallel collector must produce byte-identical evidence to the
// serial collector for any worker count.
func TestParallelCollectorEquivalence(t *testing.T) {
	traces := synthTraces(3000)
	serial := NewCollector()
	for _, tc := range traces {
		serial.Add(tc)
	}
	want := serial.Evidence()
	for _, workers := range []int{1, 2, 3, 8} {
		par := NewParallelCollector(workers)
		for _, tc := range traces {
			par.Add(tc)
		}
		if par.Traces() != len(traces) {
			t.Fatalf("workers=%d: Traces() = %d, want %d", workers, par.Traces(), len(traces))
		}
		got := par.Evidence()
		if !reflect.DeepEqual(want.Adjacencies, got.Adjacencies) {
			t.Fatalf("workers=%d: adjacency slices differ (%d vs %d entries)",
				workers, len(want.Adjacencies), len(got.Adjacencies))
		}
		if want.Stats != got.Stats {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, want.Stats, got.Stats)
		}
		if !reflect.DeepEqual(want.AllAddrs, got.AllAddrs) {
			t.Fatalf("workers=%d: address sets differ", workers)
		}
	}
}

// Like the serial collector, the parallel collector stays usable after
// Evidence: the pipeline restarts and later snapshots include both the
// old and the new traces.
func TestParallelCollectorIncremental(t *testing.T) {
	traces := synthTraces(1200)
	par := NewParallelCollector(4)
	serial := NewCollector()
	for _, tc := range traces[:600] {
		par.Add(tc)
		serial.Add(tc)
	}
	first := par.Evidence()
	if want := serial.Evidence(); !reflect.DeepEqual(want.Adjacencies, first.Adjacencies) {
		t.Fatal("first snapshot diverges from serial")
	}
	for _, tc := range traces[600:] {
		par.Add(tc)
		serial.Add(tc)
	}
	second := par.Evidence()
	want := serial.Evidence()
	if !reflect.DeepEqual(want.Adjacencies, second.Adjacencies) || want.Stats != second.Stats {
		t.Fatal("second snapshot diverges from serial")
	}
	if len(first.Adjacencies) >= len(second.Adjacencies) {
		t.Fatalf("second snapshot (%d adjacencies) should extend the first (%d)",
			len(second.Adjacencies), len(first.Adjacencies))
	}
}

// Evidence snapshots must be insulated from later Adds: the returned
// address set is a copy, not a view of the live collector (regression
// test for the AllAddrs aliasing bug).
func TestEvidenceSnapshotIsolation(t *testing.T) {
	c := NewCollector()
	c.Add(tr("1.1.1.1", "2.2.2.2"))
	ev := c.Evidence()
	before := len(ev.AllAddrs)
	c.Add(tr("3.3.3.3", "4.4.4.4"))
	if len(ev.AllAddrs) != before {
		t.Fatalf("snapshot AllAddrs grew from %d to %d after a later Add", before, len(ev.AllAddrs))
	}
	if ev.AllAddrs.Contains(inet.MustParseAddr("3.3.3.3")) {
		t.Fatal("snapshot AllAddrs sees addresses added after Evidence()")
	}

	p := NewParallelCollector(2)
	p.Add(tr("1.1.1.1", "2.2.2.2"))
	pev := p.Evidence()
	before = len(pev.AllAddrs)
	p.Add(tr("3.3.3.3", "4.4.4.4"))
	p.Evidence()
	if len(pev.AllAddrs) != before {
		t.Fatal("parallel snapshot AllAddrs mutated by a later Add")
	}
}

// filterPool returns addresses that collide in the sanitise workers'
// address filter: perSlot addresses for each of slots filter slots.
// Adjacencies over a pool this small collide in the adjacency filter
// too (about a thousand pairs over its 8192 slots).
func filterPool(slots, perSlot int) []inet.Addr {
	bySlot := make(map[uint32][]inet.Addr)
	var pool []inet.Addr
	for a := inet.Addr(0x08000001); len(pool) < slots*perSlot; a++ {
		s := addrSlot(a)
		bySlot[s] = append(bySlot[s], a)
		if len(bySlot[s]) == perSlot {
			pool = append(pool, bySlot[s]...)
		}
	}
	return pool
}

// lonePair returns two addresses whose address-filter slots no pool
// address, and not each other, uses.
func lonePair(pool []inet.Addr) (x, y inet.Addr) {
	used := make(map[uint32]bool)
	for _, a := range pool {
		used[addrSlot(a)] = true
	}
	var lone []inet.Addr
	for a := inet.Addr(0x09000001); len(lone) < 2; a++ {
		if s := addrSlot(a); !used[s] {
			used[s] = true
			lone = append(lone, a)
		}
	}
	return lone[0], lone[1]
}

// filterCorpus draws a corpus over pool that exercises every filter
// case: hits and slot collisions, hops removed by §4.1 (seen but not
// retained), discarded traces, and an address x sighted only twice:
// first in a discarded trace, later in a retained one. x and its
// neighbour sit in filter slots of their own, so nothing evicts x's
// seen-only entry in between.
func filterCorpus(rng *rand.Rand, pool []inet.Addr) []trace.Trace {
	pick := func() inet.Addr { return pool[rng.Intn(len(pool))] }
	n := 200 + rng.Intn(600)
	traces := make([]trace.Trace, 0, n+1)
	x, y := lonePair(pool)
	traces = append(traces, trace.NewTrace("mon-0", 0x0b000001, x, y, x)) // cycle: discarded
	for len(traces) < n {
		hops := make([]trace.Hop, 0, 8)
		for j, nh := 0, 2+rng.Intn(7); j < nh; j++ {
			h := trace.Hop{Addr: pick(), QuotedTTL: 1}
			switch rng.Intn(10) {
			case 0:
				h.Addr = 0
			case 1:
				h.QuotedTTL = 0
			case 2:
				if len(hops) > 1 {
					h.Addr = hops[0].Addr
				}
			}
			hops = append(hops, h)
		}
		traces = append(traces, trace.Trace{
			Monitor: fmt.Sprintf("mon-%d", rng.Intn(3)),
			Dst:     pick(),
			Hops:    hops,
		})
	}
	// A retained sighting of x, at a random later position.
	at := 1 + rng.Intn(len(traces))
	return slices.Insert(traces, at, trace.NewTrace("mon-1", 0x0b000002, x, y))
}

// addrSpillModel gives the address runs one sanitise worker spills over
// one pipeline run under RunEntries n — a run per non-empty set at each
// trace-batch boundary where either set has reached n, and at
// retirement — and the entries across them.
func addrSpillModel(traces []trace.Trace, n int) (runs, entries int) {
	all, ret := make(inet.AddrSet), make(inet.AddrSet)
	flush := func() {
		for _, s := range []inet.AddrSet{all, ret} {
			if len(s) > 0 {
				runs++
				entries += len(s)
			}
		}
		all, ret = make(inet.AddrSet), make(inet.AddrSet)
	}
	for i, tc := range traces {
		for _, h := range tc.Hops {
			if h.Responded() {
				all.Add(h.Addr)
			}
		}
		if clean, res := trace.Sanitize(tc); !res.Discarded {
			for _, h := range clean.Hops {
				if h.Responded() {
					ret.Add(h.Addr)
				}
			}
		}
		if ((i+1)%traceBatchSize == 0 || i == len(traces)-1) && (len(all) >= n || len(ret) >= n) {
			flush()
		}
	}
	flush()
	return runs, entries
}

// spilledAddrs counts the address runs a collector has spilled and the
// entries across them.
func spilledAddrs(c *ParallelCollector) (runs, entries int) {
	for _, sf := range c.spill.files {
		for _, stream := range []int{streamAll, streamRet} {
			for _, run := range sf.runs[stream] {
				runs++
				entries += run.Count
			}
		}
	}
	return runs, entries
}

// diffEvidence describes how got differs from want, or returns "".
func diffEvidence(want, got *Evidence) string {
	switch {
	case !reflect.DeepEqual(want.Adjacencies, got.Adjacencies):
		return fmt.Sprintf("adjacencies differ (%d vs %d)", len(want.Adjacencies), len(got.Adjacencies))
	case !reflect.DeepEqual(want.AllAddrs, got.AllAddrs):
		return fmt.Sprintf("address sets differ (%d vs %d)", len(want.AllAddrs), len(got.AllAddrs))
	case want.Stats != got.Stats:
		return fmt.Sprintf("stats differ: want %+v, got %+v", want.Stats, got.Stats)
	case !reflect.DeepEqual(want.Monitors, got.Monitors):
		return "monitor evidence differs"
	}
	return ""
}

// cloneEvidence deep-copies ev, keeping nil and empty slices apart.
func cloneEvidence(ev *Evidence) *Evidence {
	cp := &Evidence{
		AllAddrs:    maps.Clone(ev.AllAddrs),
		Adjacencies: slices.Clone(ev.Adjacencies),
		Stats:       ev.Stats,
		Monitors:    slices.Clone(ev.Monitors),
	}
	for i := range cp.Monitors {
		cp.Monitors[i].Adjacencies = slices.Clone(cp.Monitors[i].Adjacencies)
	}
	return cp
}

// runSlack describes a compacted run of c that keeps capacity beyond
// its length, or returns "". A spilling collector leaves its address
// runs on disk, so they are checked only once compacted in memory.
func runSlack(c *ParallelCollector) string {
	if len(c.monRuns) > 1 {
		return "attribution runs not compacted into one"
	}
	runs := map[string][2]int{}
	for i, r := range c.adjRuns {
		runs[fmt.Sprintf("adjacency %d", i)] = [2]int{len(r), cap(r)}
	}
	for _, r := range c.monRuns {
		runs["attribution"] = [2]int{len(r), cap(r)}
	}
	if len(c.allRuns) == 1 && len(c.retRuns) == 1 {
		runs["address"] = [2]int{len(c.allRuns[0]), cap(c.allRuns[0])}
		runs["retained-address"] = [2]int{len(c.retRuns[0]), cap(c.retRuns[0])}
	}
	for name, lc := range runs {
		if lc[0] != lc[1] {
			return fmt.Sprintf("%s run of length %d has capacity %d", name, lc[0], lc[1])
		}
	}
	return ""
}

// TestParallelCollectorFiltersTransparent: the sanitise workers'
// direct-mapped filters and the runs every Finish compacts must change
// nothing. For random corpora over colliding addresses, cut into two to
// four segments with a Finish after each, the collector at 1, 2 and 8
// workers — in memory, spilling every few entries, and in memory for
// the first segment but spilling from then on, so that the base run
// the first Finish leaves meets a spill merge — must return exactly the
// serial Collector's evidence and monitor attribution at every Finish.
// No Finish may change evidence an earlier one returned. A single
// worker spilling from the start must also spill exactly the address
// runs a filterless worker would, so a filter that outlives its map's
// flush shows.
func TestParallelCollectorFiltersTransparent(t *testing.T) {
	pool := filterPool(8, 4)
	dir := t.TempDir()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := filterCorpus(rng, pool)
		cuts := []int{0, len(traces)}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			cuts = append(cuts, 1+rng.Intn(len(traces)-1))
		}
		slices.Sort(cuts)
		runEntries := 1 + rng.Intn(4)
		spill := SpillConfig{Dir: dir, RunEntries: runEntries}
		for _, workers := range []int{1, 2, 8} {
			for _, row := range []struct {
				name        string
				early, late SpillConfig
			}{{"memory", SpillConfig{}, SpillConfig{}}, {"spill", spill, spill}, {"late-spill", SpillConfig{}, spill}} {
				label := fmt.Sprintf("seed=%d workers=%d %s RunEntries=%d", seed, workers, row.name, runEntries)
				serial := NewCollector()
				serial.TrackMonitors()
				par := NewParallelCollectorSpill(workers, row.early)
				par.TrackMonitors()
				var returned, copies []*Evidence
				wantRuns, wantEntries := 0, 0
				for i := 1; i < len(cuts); i++ {
					if i == 2 && row.late != row.early {
						par.enableSpill(row.late)
					}
					seg := traces[cuts[i-1]:cuts[i]]
					for _, tc := range seg {
						serial.Add(tc)
						par.Add(tc)
					}
					got, err := par.Finish()
					if err != nil {
						t.Logf("%s: Finish: %v", label, err)
						return false
					}
					if d := diffEvidence(serial.Evidence(), got); d != "" {
						t.Logf("%s, Finish %d: %s", label, i, d)
						return false
					}
					returned, copies = append(returned, got), append(copies, cloneEvidence(got))
					if d := runSlack(par); d != "" {
						t.Logf("%s, Finish %d: %s", label, i, d)
						return false
					}
					if workers == 1 && row.early.RunEntries > 0 {
						r, e := addrSpillModel(seg, runEntries)
						wantRuns, wantEntries = wantRuns+r, wantEntries+e
						if r, e := spilledAddrs(par); r != wantRuns || e != wantEntries {
							t.Logf("%s, Finish %d: %d address runs of %d entries, want %d of %d",
								label, i, r, e, wantRuns, wantEntries)
							return false
						}
					}
				}
				for i := range returned {
					if d := diffEvidence(copies[i], returned[i]); d != "" {
						t.Logf("%s: evidence of Finish %d changed later: %s", label, i+1, d)
						return false
					}
				}
				if row.late.RunEntries > 0 && par.SpillStats().AdjRuns == 0 {
					t.Logf("%s: spilled no adjacency run", label)
					return false
				}
				if err := par.Close(); err != nil {
					t.Logf("%s: Close: %v", label, err)
					return false
				}
			}
		}
		return true
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(f, quickCfg(n)); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCollectorMonitorFilterExact: a monitor-filter hit must
// mean this very (monitor, adjacency) pair, and the worker's in-place
// compaction of its attribution keys must lose none. The random corpora
// have too few monitors for two of them to meet in one slot, so here
// one worker (ids then follow first sight) sees monitors 0..m over one
// shared link, m being the first id whose slot for that link is
// monitor 0's; then one monitor sends enough distinct links, six
// times over, that evicted pairs miss again and its key list is
// compacted several times before retirement.
func TestParallelCollectorMonitorFilterExact(t *testing.T) {
	a, b := inet.Addr(0x08080801), inet.Addr(0x08080802)
	h := adjHash(adjKey(trace.Adjacency{First: a, Second: b}))
	m := uint32(1)
	for monSlot(h, m) != monSlot(h, 0) {
		m++
	}
	var traces []trace.Trace
	for id := uint32(0); id <= m; id++ {
		traces = append(traces, trace.NewTrace(fmt.Sprintf("mon-%05d", id), 0x0b000001, a, b))
	}
	const links, perTrace = 4 * keyCompactMin, 64
	for round := 0; round < 6; round++ {
		for lo := 0; lo < links; lo += perTrace {
			hops := make([]inet.Addr, perTrace+1)
			for j := range hops {
				hops[j] = inet.Addr(0x0c000000 + lo + j)
			}
			traces = append(traces, trace.NewTrace("mon-busy", 0x0b000002, hops...))
		}
	}
	serial := NewCollector()
	serial.TrackMonitors()
	par := NewParallelCollector(1)
	par.TrackMonitors()
	for _, tc := range traces {
		serial.Add(tc)
		par.Add(tc)
	}
	got, err := par.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffEvidence(serial.Evidence(), got); d != "" {
		t.Fatalf("evidence differs from the serial collector's (monitors 0 and %d share a slot for one link): %s", m, d)
	}
	if last := got.Monitors[m]; len(last.Adjacencies) != 1 {
		t.Fatalf("%s has %d adjacencies, want the shared link", last.Monitor, len(last.Adjacencies))
	}
}
