package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// equalSpillEvidence requires byte-identical evidence: same sorted
// adjacency slice, same address set, same stats.
func equalSpillEvidence(t *testing.T, label string, want, got *Evidence) {
	t.Helper()
	if !reflect.DeepEqual(want.Adjacencies, got.Adjacencies) {
		t.Fatalf("%s: adjacency slices differ (%d vs %d entries)",
			label, len(want.Adjacencies), len(got.Adjacencies))
	}
	if !reflect.DeepEqual(want.AllAddrs, got.AllAddrs) {
		t.Fatalf("%s: address sets differ (%d vs %d addrs)",
			label, len(want.AllAddrs), len(got.AllAddrs))
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ:\n want %+v\n got  %+v", label, want.Stats, got.Stats)
	}
}

// spillEquivalenceCases spans thresholds from degenerate ones that
// spill on nearly every batch to a budget that never spills.
var spillEquivalenceCases = []struct {
	cfg       SpillConfig
	mustSpill bool
}{
	{SpillConfig{RunEntries: 1}, true},
	{SpillConfig{RunEntries: 3}, true},
	{SpillConfig{RunEntries: 7}, true},
	{SpillConfig{RunEntries: 64}, true},
	{SpillConfig{RunEntries: 100}, true},
	{SpillConfig{RunEntries: 5000}, false},
	{SpillConfig{MemBudget: 1}, true},
	{SpillConfig{MemBudget: 32 << 10}, true},
	{SpillConfig{MemBudget: 256 << 10}, true},
	{SpillConfig{MemBudget: 1 << 20}, false},
	{SpillConfig{MemBudget: 1 << 30}, false}, // never spills
}

// checkSpillEquivalence runs every spillEquivalenceCases threshold with
// each worker count; every combination must reproduce the serial
// in-memory evidence exactly.
func checkSpillEquivalence(t *testing.T, traces []trace.Trace, workerCounts ...int) {
	t.Helper()
	serial := NewCollector()
	for _, tc := range traces {
		serial.Add(tc)
	}
	want := serial.Evidence()

	for _, workers := range workerCounts {
		for _, tc := range spillEquivalenceCases {
			cfg := tc.cfg
			cfg.Dir = t.TempDir()
			label := fmt.Sprintf("workers=%d budget=%d entries=%d", workers, cfg.MemBudget, cfg.RunEntries)
			par := NewParallelCollectorSpill(workers, cfg)
			for _, tc := range traces {
				par.Add(tc)
			}
			got, err := par.Finish()
			if err != nil {
				t.Fatalf("%s: Finish: %v", label, err)
			}
			equalSpillEvidence(t, label, want, got)
			// Workers flush their address sets at retirement under any
			// budget, so only adjacency runs show that the adjacency half
			// spilled; under it, workers keep adjacencies resident.
			st := par.SpillStats()
			if tc.mustSpill && (st.AdjRuns == 0 || st.AddrRuns == 0) {
				t.Fatalf("%s: expected adjacency and address runs, stats %+v", label, st)
			}
			if cfg.MemBudget == 1<<30 && st.AdjRuns != 0 {
				t.Fatalf("%s: spilled adjacencies under a budget it never reaches: %+v", label, st)
			}
			if err := par.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestCollectorSpillEquivalence: the single-worker spill path, which
// ingests traces in arrival order, must be byte-identical to the
// in-memory Collector for every threshold.
func TestCollectorSpillEquivalence(t *testing.T) {
	checkSpillEquivalence(t, synthTraces(2500), 1)
}

// TestParallelCollectorSpillEquivalence sweeps the same thresholds with
// several sanitise workers, whose adjacency runs overlap.
func TestParallelCollectorSpillEquivalence(t *testing.T) {
	checkSpillEquivalence(t, synthTraces(3000), 2, 4)
}

// TestParallelCollectorAddrFlushSchedule pins when a sanitise worker
// flushes its addresses: its one flagged map must spill exactly the runs
// that two separate sets of all and retained addresses would. A single
// worker makes the schedule deterministic; the model checks the
// entry-count limit after every trace batch, as the worker does, and
// flushes the non-empty sets at retirement.
func TestParallelCollectorAddrFlushSchedule(t *testing.T) {
	traces := synthTraces(3000)
	for _, n := range []int{40, 300, 2000} {
		all, ret := make(inet.AddrSet), make(inet.AddrSet)
		wantRuns := 0
		flush := func() {
			for _, s := range []inet.AddrSet{all, ret} {
				if len(s) > 0 {
					wantRuns++
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

		par := NewParallelCollectorSpill(1, SpillConfig{Dir: t.TempDir(), RunEntries: n})
		for _, tc := range traces {
			par.Add(tc)
		}
		if _, err := par.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := par.SpillStats().AddrRuns; got != wantRuns {
			t.Errorf("RunEntries=%d: %d address runs, want %d", n, got, wantRuns)
		}
		if err := par.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectorSpillIncremental: a spilling collector stays usable
// after Finish — later Adds extend the evidence, and repeated merges
// over the same on-disk runs stay correct.
func TestCollectorSpillIncremental(t *testing.T) {
	traces := synthTraces(1600)
	for _, workers := range []int{1, 3} {
		oracle := NewCollector()
		par := NewParallelCollectorSpill(workers, SpillConfig{Dir: t.TempDir(), RunEntries: 37})
		for _, half := range []struct {
			label  string
			traces []trace.Trace
		}{{"first", traces[:800]}, {"second", traces[800:]}} {
			for _, tc := range half.traces {
				oracle.Add(tc)
				par.Add(tc)
			}
			got, err := par.Finish()
			if err != nil {
				t.Fatal(err)
			}
			equalSpillEvidence(t, fmt.Sprintf("workers=%d/%s", workers, half.label), oracle.Evidence(), got)
		}
		if err := par.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectorSpillSnapshotInsulation: evidence returned before more
// Adds must not change.
func TestCollectorSpillSnapshotInsulation(t *testing.T) {
	traces := synthTraces(1000)
	for _, workers := range []int{1, 2} {
		c := NewParallelCollectorSpill(workers, SpillConfig{Dir: t.TempDir(), RunEntries: 40})
		for _, tc := range traces[:500] {
			c.Add(tc)
		}
		first, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		adjs := len(first.Adjacencies)
		addrs := len(first.AllAddrs)
		stats := first.Stats
		for _, tc := range traces[500:] {
			c.Add(tc)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(first.Adjacencies) != adjs || len(first.AllAddrs) != addrs || first.Stats != stats {
			t.Fatalf("workers=%d: first snapshot mutated by later Adds", workers)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectorSpillClose: Close removes every spill file.
func TestCollectorSpillClose(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		c := NewParallelCollectorSpill(workers, SpillConfig{Dir: dir, RunEntries: 10})
		for _, tc := range synthTraces(500) {
			c.Add(tc)
		}
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		if c.SpillStats().Files == 0 {
			t.Fatalf("workers=%d: expected spill files", workers)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("workers=%d: no spill files on disk before Close", workers)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		ents, err = os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("workers=%d: %d spill files left after Close", workers, len(ents))
		}
	}
}

// TestCollectorSpillCorruptSegment: damaging a spill file between
// ingest and merge must surface as a typed CorruptError from Finish.
func TestCollectorSpillCorruptSegment(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		c := NewParallelCollectorSpill(workers, SpillConfig{Dir: dir, RunEntries: 25})
		for _, tc := range synthTraces(800) {
			c.Add(tc)
		}
		// A first merge forces the segment writers to flush, so the
		// files on disk are complete before we damage them.
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		// Flip one byte in the middle of every spill segment.
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("workers=%d: spill files: %v (%d)", workers, err, len(ents))
		}
		for _, e := range ents {
			if !strings.HasPrefix(e.Name(), "mapit-spill-") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < 32 {
				continue
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err = c.Finish()
		if err == nil {
			t.Fatalf("workers=%d: Finish succeeded on a corrupted spill segment", workers)
		}
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: got %v, want *trace.CorruptError", workers, err)
		}
		c.Close()
	}
}

// TestSpillStatsString pins the -stats rendering.
func TestSpillStatsString(t *testing.T) {
	s := SpillStats{Files: 2, AdjRuns: 3, AddrRuns: 4, SpilledEntries: 500, SpilledBytes: 6000, Merges: 1}
	want := "files=2 adj_runs=3 addr_runs=4 spilled_entries=500 spilled_bytes=6000 merges=1"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCollectorNoSpillAccessors: the spill accessors are safe no-ops on
// an in-memory collector.
func TestCollectorNoSpillAccessors(t *testing.T) {
	p := NewParallelCollector(2)
	if st := p.SpillStats(); st != (SpillStats{}) {
		t.Errorf("in-memory ParallelCollector SpillStats = %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Errorf("in-memory ParallelCollector Close: %v", err)
	}

	// Spilling collectors that never reach their budget keep every
	// adjacency resident (only the retiring workers' address sets go to
	// disk), report stats and close cleanly. An empty Dir defaults to
	// the system temp dir.
	for _, workers := range []int{1, 2} {
		s := NewParallelCollectorSpill(workers, SpillConfig{MemBudget: 1 << 40})
		for _, tc := range synthTraces(20) {
			s.Add(tc)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		if st := s.SpillStats(); st.AdjRuns != 0 {
			t.Errorf("workers=%d: collector under budget spilled adjacencies: %+v", workers, st)
		}
		if err := s.Close(); err != nil {
			t.Errorf("workers=%d: Close: %v", workers, err)
		}
	}
}

// checkSpillWriteError: an unusable spill directory surfaces from
// Finish as an error and from Evidence as a panic — never as silently
// corrupt evidence — while Close stays clean.
func checkSpillWriteError(t *testing.T, workers int, dir string) {
	t.Helper()
	c := NewParallelCollectorSpill(workers, SpillConfig{Dir: dir, RunEntries: 1})
	for _, tc := range synthTraces(300) {
		c.Add(tc)
	}
	if _, err := c.Finish(); err == nil {
		t.Fatalf("workers=%d: Finish succeeded with an unusable spill dir", workers)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("workers=%d: Evidence did not panic on spill error", workers)
			}
		}()
		c.Evidence()
	}()
	if err := c.Close(); err != nil {
		t.Errorf("workers=%d: Close: %v", workers, err)
	}
}

// TestCollectorSpillWriteError: a missing spill directory fails the
// single-worker collector.
func TestCollectorSpillWriteError(t *testing.T) {
	checkSpillWriteError(t, 1, filepath.Join(t.TempDir(), "missing-subdir"))
}

// TestParallelCollectorSpillWriteError: a missing directory several
// levels deep fails a collector whose workers spill concurrently.
func TestParallelCollectorSpillWriteError(t *testing.T) {
	checkSpillWriteError(t, 2, filepath.Join(t.TempDir(), "does", "not", "exist"))
}

// TestRunEvidenceSpillStats: Config.SpillStats travels into
// Result.Diag.Spill.
func TestRunEvidenceSpillStats(t *testing.T) {
	c := NewCollector()
	for _, tc := range synthTraces(20) {
		c.Add(tc)
	}
	st := SpillStats{Files: 1, AdjRuns: 2, SpilledEntries: 7, Merges: 1}
	cfg := Config{IP2AS: table("8.0.0.0/8=64500"), F: 0.5, SpillStats: &st}
	r, err := RunEvidence(c.Evidence(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Diag.Spill != st {
		t.Errorf("Diag.Spill = %+v, want %+v", r.Diag.Spill, st)
	}
}

// TestSpillSegmentDamage drives mergeEvidence's error propagation for
// each stream and the file-lifecycle error paths that the end-to-end
// corruption test cannot reach deterministically.
func TestSpillSegmentDamage(t *testing.T) {
	newParty := func(t *testing.T) (*spillSink, *spiller) {
		sink := newSpillSink(SpillConfig{Dir: t.TempDir(), RunEntries: 1})
		return sink, newSpiller(sink)
	}
	adjKeys := []uint64{
		adjKey(trace.Adjacency{First: 10, Second: 11}), adjKey(trace.Adjacency{First: 12, Second: 13}),
	}
	addrs := func(flag uint8) map[inet.Addr]uint8 {
		return map[inet.Addr]uint8{21: flag, 22: flag, 23: flag}
	}

	t.Run("adj-run-truncated", func(t *testing.T) {
		sink, sp := newParty(t)
		if !sp.flushAdjKeys(adjKeys) {
			t.Fatal("flush failed")
		}
		if err := sp.file.sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sp.file.f.Truncate(6); err != nil {
			t.Fatal(err)
		}
		if _, err := sink.mergeEvidence(nil, nil, nil, trace.Stats{}); err == nil {
			t.Error("merge over a truncated adjacency run succeeded")
		}
		if err := sink.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	t.Run("addr-run-truncated", func(t *testing.T) {
		for _, flag := range []uint8{addrSeen, addrRetained} { // one run in streamAll, resp. streamRet
			sink, sp := newParty(t)
			if !sp.flushFlaggedAddrs(addrs(flag)) {
				t.Fatal("flush failed")
			}
			if err := sp.file.sw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := sp.file.f.Truncate(6); err != nil {
				t.Fatal(err)
			}
			if _, err := sink.mergeEvidence(nil, nil, nil, trace.Stats{}); err == nil {
				t.Errorf("flags %b: merge over a truncated address run succeeded", flag)
			}
			if err := sink.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})

	t.Run("writer-flush-failure", func(t *testing.T) {
		sink, sp := newParty(t)
		if !sp.flushAdjKeys(adjKeys) {
			t.Fatal("flush failed")
		}
		// Closing the descriptor under the writer makes the merge's
		// flush fail before any cursor opens.
		if err := sp.file.f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := sink.mergeEvidence(nil, nil, nil, trace.Stats{}); err == nil {
			t.Error("merge flushed through a closed file")
		}
		// close reports the double-close but removes the file.
		if err := sink.close(); err == nil {
			t.Error("close on a closed file reported no error")
		}
	})

	t.Run("close-missing-file", func(t *testing.T) {
		sink, sp := newParty(t)
		if !sp.flushAdjKeys(adjKeys) {
			t.Fatal("flush failed")
		}
		if err := os.Remove(sp.file.f.Name()); err != nil {
			t.Fatal(err)
		}
		if err := sink.close(); err == nil {
			t.Error("close with the segment file already removed reported no error")
		}
	})

	t.Run("flush-after-failure-is-noop", func(t *testing.T) {
		sink, sp := newParty(t)
		sink.fail(errors.New("boom"))
		if sp.flushAdjKeys(adjKeys) || sp.flushFlaggedAddrs(addrs(addrSeen)) {
			t.Error("flush reported success on a failed sink")
		}
		if sink.spilled() {
			t.Error("failed sink recorded runs")
		}
	})
}

// shiftTraces copies traces with every responding address, and the
// destination, moved up by off, so that each copy brings adjacencies of
// its own.
func shiftTraces(traces []trace.Trace, off inet.Addr) []trace.Trace {
	out := make([]trace.Trace, len(traces))
	for i, tr := range traces {
		hops := slices.Clone(tr.Hops)
		for j := range hops {
			if hops[j].Addr != 0 {
				hops[j].Addr += off
			}
		}
		out[i] = trace.Trace{Monitor: tr.Monitor, Dst: tr.Dst + off, Hops: hops}
	}
	return out
}

// TestIngestorAdjacencyRetirementBudget: a spilling worker keeps its
// adjacency residue resident at retirement only while the collector's
// resident adjacency runs stay within the adjacency half of the byte
// budget. Each round ingests fresh adjacencies, few enough that no
// worker's key list reaches its share mid-stream, so the rounds pile up
// residues until they overflow the half-budget together: from then on
// residues must go to disk, and the resident runs must never pass the
// half-budget. Every round's evidence is the serial Collector's.
func TestIngestorAdjacencyRetirementBudget(t *testing.T) {
	const (
		workers = 2
		rounds  = 6
		budget  = 128 << 10
	)
	base := synthTraces(250)
	g := NewIngestor(IngestOptions{Workers: workers, Spill: SpillConfig{Dir: t.TempDir(), MemBudget: budget}})
	defer g.Close()
	serial := NewCollector()
	overflowed := false
	for round := 0; round < rounds; round++ {
		traces := shiftTraces(base, inet.Addr(round)<<20)
		var buf bytes.Buffer
		if err := trace.WriteBinaryBlocks(&buf, &trace.Dataset{Traces: traces}, 64); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Ingest(&buf); err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			serial.Add(tr)
		}
		ev, err := g.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Evidence()
		equalSpillEvidence(t, fmt.Sprintf("round %d", round), want, ev)
		resident := 0
		for _, r := range g.coll.adjRuns {
			resident += len(r)
		}
		if resident*adjEntryCost > budget/2 {
			t.Fatalf("round %d: %d resident adjacency entries cost more than the %d B half-budget", round, resident, budget/2)
		}
		st := g.SpillStats()
		if round == 0 && (st.AdjRuns != 0 || resident == 0) {
			t.Fatalf("round 0: one round's residue must fit the half-budget: %d resident, %+v", resident, st)
		}
		overflowed = overflowed || len(want.Adjacencies)*adjEntryCost > budget/2
		if overflowed && st.AdjRuns == 0 {
			t.Fatalf("round %d: %d adjacencies overflow the half-budget, yet none spilled", round, len(want.Adjacencies))
		}
	}
	if !overflowed {
		t.Fatal("the rounds never overflowed the half-budget")
	}
}
