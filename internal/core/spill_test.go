package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestCollectorSpillEquivalence: the serial spill path must be
// byte-identical to the in-memory path for every threshold, including
// degenerate ones that spill on nearly every Add.
func TestCollectorSpillEquivalence(t *testing.T) {
	traces := synthTraces(2500)
	want := func() *Evidence {
		c := NewCollector()
		for _, tc := range traces {
			c.Add(tc)
		}
		return c.Evidence()
	}()

	cases := []SpillConfig{
		{RunEntries: 1},
		{RunEntries: 7},
		{RunEntries: 100},
		{RunEntries: 5000},
		{MemBudget: 1},
		{MemBudget: 32 << 10},
		{MemBudget: 1 << 20},
		{MemBudget: 1 << 30}, // never spills
	}
	for _, cfg := range cases {
		cfg.Dir = t.TempDir()
		c := NewCollectorSpill(cfg)
		for _, tc := range traces {
			c.Add(tc)
		}
		got, err := c.Finish()
		if err != nil {
			t.Fatalf("cfg=%+v: Finish: %v", cfg, err)
		}
		equalSpillEvidence(t, fmt.Sprintf("budget=%d entries=%d", cfg.MemBudget, cfg.RunEntries), want, got)
		if cfg.MemBudget == 1 && c.SpillStats().AdjRuns == 0 {
			t.Fatalf("cfg=%+v: expected spilling, stats %+v", cfg, c.SpillStats())
		}
		if err := c.Close(); err != nil {
			t.Fatalf("cfg=%+v: Close: %v", cfg, err)
		}
	}
}

// TestParallelCollectorSpillEquivalence sweeps worker counts ×
// thresholds; every combination must reproduce the serial in-memory
// evidence exactly.
func TestParallelCollectorSpillEquivalence(t *testing.T) {
	traces := synthTraces(3000)
	serial := NewCollector()
	for _, tc := range traces {
		serial.Add(tc)
	}
	want := serial.Evidence()

	for _, workers := range []int{1, 2, 4} {
		for _, cfg := range []SpillConfig{
			{RunEntries: 3},
			{RunEntries: 64},
			{MemBudget: 1},
			{MemBudget: 256 << 10},
		} {
			cfg.Dir = t.TempDir()
			par := NewParallelCollectorSpill(workers, cfg)
			for _, tc := range traces {
				par.Add(tc)
			}
			got, err := par.Finish()
			if err != nil {
				t.Fatalf("workers=%d cfg=%+v: Finish: %v", workers, cfg, err)
			}
			equalSpillEvidence(t, fmt.Sprintf("workers=%d budget=%d entries=%d",
				workers, cfg.MemBudget, cfg.RunEntries), want, got)
			if par.SpillStats().AdjRuns+par.SpillStats().AddrRuns == 0 {
				t.Fatalf("workers=%d cfg=%+v: nothing spilled", workers, cfg)
			}
			if err := par.Close(); err != nil {
				t.Fatalf("workers=%d: Close: %v", workers, err)
			}
		}
	}
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
	oracle := NewCollector()
	c := NewCollectorSpill(SpillConfig{Dir: t.TempDir(), RunEntries: 50})
	defer c.Close()
	par := NewParallelCollectorSpill(3, SpillConfig{Dir: t.TempDir(), RunEntries: 37})
	defer par.Close()

	for _, tc := range traces[:800] {
		oracle.Add(tc)
		c.Add(tc)
		par.Add(tc)
	}
	want := oracle.Evidence()
	got, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	equalSpillEvidence(t, "serial/first", want, got)
	pgot, err := par.Finish()
	if err != nil {
		t.Fatal(err)
	}
	equalSpillEvidence(t, "parallel/first", want, pgot)

	for _, tc := range traces[800:] {
		oracle.Add(tc)
		c.Add(tc)
		par.Add(tc)
	}
	want = oracle.Evidence()
	got, err = c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	equalSpillEvidence(t, "serial/second", want, got)
	pgot, err = par.Finish()
	if err != nil {
		t.Fatal(err)
	}
	equalSpillEvidence(t, "parallel/second", want, pgot)
}

// TestCollectorSpillSnapshotInsulation: evidence returned before more
// Adds must not change.
func TestCollectorSpillSnapshotInsulation(t *testing.T) {
	traces := synthTraces(1000)
	c := NewCollectorSpill(SpillConfig{Dir: t.TempDir(), RunEntries: 40})
	defer c.Close()
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
		t.Fatal("first snapshot mutated by later Adds")
	}
}

// TestCollectorSpillClose: Close removes every spill file.
func TestCollectorSpillClose(t *testing.T) {
	dir := t.TempDir()
	c := NewCollectorSpill(SpillConfig{Dir: dir, RunEntries: 10})
	for _, tc := range synthTraces(500) {
		c.Add(tc)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if c.SpillStats().Files == 0 {
		t.Fatal("expected spill files")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no spill files on disk before Close")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files left after Close", len(ents))
	}
}

// TestCollectorSpillWriteError: an unwritable spill directory must
// surface from Finish as an error (and panic from Evidence), never
// corrupt the evidence silently.
func TestCollectorSpillWriteError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing-subdir")
	c := NewCollectorSpill(SpillConfig{Dir: dir, RunEntries: 5})
	for _, tc := range synthTraces(300) {
		c.Add(tc)
	}
	if _, err := c.Finish(); err == nil {
		t.Fatal("Finish succeeded with an unwritable spill dir")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Evidence did not panic on spill failure")
		}
	}()
	c.Evidence()
}

// TestCollectorSpillCorruptSegment: damaging a spill file between
// ingest and merge must surface as a typed CorruptError from Finish.
func TestCollectorSpillCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	c := NewCollectorSpill(SpillConfig{Dir: dir, RunEntries: 25})
	defer c.Close()
	for _, tc := range synthTraces(800) {
		c.Add(tc)
	}
	// A first merge forces the segment writers to flush, so the files on
	// disk are complete before we damage them.
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of every spill segment.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("spill files: %v (%d)", err, len(ents))
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
		t.Fatal("Finish succeeded on a corrupted spill segment")
	}
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *trace.CorruptError", err)
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
// plain in-memory collectors.
func TestCollectorNoSpillAccessors(t *testing.T) {
	c := NewCollector()
	if st := c.SpillStats(); st != (SpillStats{}) {
		t.Errorf("in-memory Collector SpillStats = %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Errorf("in-memory Collector Close: %v", err)
	}
	p := NewParallelCollector(2)
	if st := p.SpillStats(); st != (SpillStats{}) {
		t.Errorf("in-memory ParallelCollector SpillStats = %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Errorf("in-memory ParallelCollector Close: %v", err)
	}

	// Spilling collectors with nothing ever spilled still report stats
	// and close cleanly. An empty Dir defaults to the system temp dir.
	s := NewCollectorSpill(SpillConfig{MemBudget: 1 << 40})
	for _, tc := range synthTraces(20) {
		s.Add(tc)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if st := s.SpillStats(); st.SpilledEntries != 0 {
		t.Errorf("unspilled collector reports spilled entries: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestParallelCollectorSpillWriteError mirrors the serial write-error
// test: an unusable spill directory surfaces from Finish as an error
// and from Evidence as a panic, while Close stays clean.
func TestParallelCollectorSpillWriteError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	c := NewParallelCollectorSpill(2, SpillConfig{Dir: dir, RunEntries: 1})
	for _, tc := range synthTraces(200) {
		c.Add(tc)
	}
	if _, err := c.Finish(); err == nil {
		t.Fatal("Finish succeeded with an unusable spill dir")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Evidence did not panic on spill error")
			}
		}()
		c.Evidence()
	}()
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
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
	adjSet := map[trace.Adjacency]struct{}{
		{First: 10, Second: 11}: {}, {First: 12, Second: 13}: {},
	}
	addrSet := inet.AddrSet{21: {}, 22: {}, 23: {}}

	t.Run("adj-run-truncated", func(t *testing.T) {
		sink, sp := newParty(t)
		if !sp.flushAdjSet(adjSet) {
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
		for _, stream := range []int{streamAll, streamRet} {
			sink, sp := newParty(t)
			if !sp.flushAddrSet(addrSet, stream) {
				t.Fatal("flush failed")
			}
			if err := sp.file.sw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := sp.file.f.Truncate(6); err != nil {
				t.Fatal(err)
			}
			if _, err := sink.mergeEvidence(nil, nil, nil, trace.Stats{}); err == nil {
				t.Errorf("stream %d: merge over a truncated address run succeeded", stream)
			}
			if err := sink.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})

	t.Run("writer-flush-failure", func(t *testing.T) {
		sink, sp := newParty(t)
		if !sp.flushAdjSet(adjSet) {
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
		if !sp.flushAdjSet(adjSet) {
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
		if sp.flushAdjSet(adjSet) || sp.flushAddrSet(addrSet, streamAll) {
			t.Error("flush reported success on a failed sink")
		}
		if sink.spilled() {
			t.Error("failed sink recorded runs")
		}
	})
}
