package core

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Out-of-core evidence store (DESIGN.md §11). The ParallelCollector's
// dedup structures — each sanitise worker's adjacency key list and
// address set, and the runs they leave at retirement — are the only
// ingest state that grows with corpus size. When a memory budget is
// configured, each worker flushes its structures as sorted,
// duplicate-free *runs* into its own columnar spill segment
// (trace.Segment*) whenever their estimated resident cost crosses its
// share of the budget, and
// finalisation k-way merges the spilled runs with the in-memory residue
// (mergeDedup) into evidence byte-identical to the in-memory path: the
// output is the sorted union of the runs, and the union is determined
// by the traces alone — never by where the run boundaries fell.

// SpillConfig bounds a collector's resident ingest state.
// The zero value disables spilling entirely.
type SpillConfig struct {
	// Dir is where spill segment files are created; empty means the
	// system temporary directory. Segments are ordinary temp files,
	// removed by Close.
	Dir string
	// MemBudget is the target ceiling, in bytes, for the estimated
	// resident cost of the collector's dedup structures (see
	// adjEntryCost / addrEntryCost). Crossing it flushes the structures
	// to disk. <= 0 means no byte budget.
	MemBudget int64
	// RunEntries, when > 0, overrides the byte budget with a per-
	// structure entry threshold: a structure flushes as soon as it holds
	// this many entries. Primarily a testing knob for forcing many tiny
	// runs; byte-identical output is guaranteed for every value.
	RunEntries int
}

// enabled reports whether the configuration asks for spilling at all.
func (c SpillConfig) enabled() bool { return c.MemBudget > 0 || c.RunEntries > 0 }

// Estimated resident bytes per entry of the dedup structures: an
// adjacency (the cost of a map[Adjacency]struct{} entry, which
// overstates a key list's 8–16 bytes) and an AddrSet entry (4-byte key
// plus overhead). Deliberately rough — the budget is a ceiling on an
// estimate, and the benchmark asserts the real heap stays under the
// configured ceiling end to end.
const (
	adjEntryCost  = 56
	addrEntryCost = 48
)

// SpillStats counts out-of-core activity for one collector. All fields
// are plain values so the struct is comparable and can travel inside
// Diagnostics.
type SpillStats struct {
	// Files is the number of spill segment files created.
	Files int
	// AdjRuns / AddrRuns count spilled runs by kind.
	AdjRuns, AddrRuns int
	// SpilledEntries counts entries written across all runs (an entry
	// may be spilled more than once if it is re-observed after a flush).
	SpilledEntries int64
	// SpilledBytes counts encoded bytes written across all runs.
	SpilledBytes int64
	// Merges counts spill-path finalisations (external merges).
	Merges int
}

// String renders the counters as a compact key=value line (the shape
// cmd/mapit -stats prints).
func (s SpillStats) String() string {
	return fmt.Sprintf("files=%d adj_runs=%d addr_runs=%d spilled_entries=%d spilled_bytes=%d merges=%d",
		s.Files, s.AdjRuns, s.AddrRuns, s.SpilledEntries, s.SpilledBytes, s.Merges)
}

// spillSink is the shared spill state of one collector: configuration,
// the file registry, counters, and the sticky first error. Each segment
// file is written by exactly one party, the sanitise worker of its slot,
// without locking; only the registry, counters and error go through the
// mutex.
type spillSink struct {
	cfg SpillConfig

	mu    sync.Mutex
	files []*spillFile
	stats SpillStats
	err   error
}

func newSpillSink(cfg SpillConfig) *spillSink {
	if cfg.Dir == "" {
		cfg.Dir = os.TempDir()
	}
	return &spillSink{cfg: cfg}
}

// fail records the first spill error; once set, all further spilling
// stops (data stays in memory) and finalisation reports it.
func (s *spillSink) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// failed returns the sticky error, if any.
func (s *spillSink) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats snapshots the counters.
func (s *spillSink) Stats() SpillStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// newFile creates and registers one spill segment file.
func (s *spillSink) newFile() (*spillFile, error) {
	f, err := os.CreateTemp(s.cfg.Dir, "mapit-spill-*.seg")
	if err != nil {
		s.fail(err)
		return nil, err
	}
	sw, err := trace.NewSegmentWriter(f)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		s.fail(err)
		return nil, err
	}
	sf := &spillFile{f: f, sw: sw}
	s.mu.Lock()
	s.files = append(s.files, sf)
	s.stats.Files++
	s.mu.Unlock()
	return sf, nil
}

// noteRun tallies one spilled run.
func (s *spillSink) noteRun(run trace.SegmentRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run.Kind == trace.AdjRunKind {
		s.stats.AdjRuns++
	} else {
		s.stats.AddrRuns++
	}
	s.stats.SpilledEntries += int64(run.Count)
	s.stats.SpilledBytes += run.Size
}

// spilled reports whether any run has been written.
func (s *spillSink) spilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.AdjRuns+s.stats.AddrRuns > 0
}

// close closes and removes every spill file. The sink is unusable
// afterwards.
func (s *spillSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sf := range s.files {
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(sf.f.Name()); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}

// spill streams: which run list of a spillFile a run lands in.
const (
	streamAdj = iota // adjacencies
	streamAll        // all observed addresses
	streamRet        // addresses on retained traces
	numStreams
)

// spillFile is one spill segment plus the locations of the runs inside
// it, by stream. Written by one party; read (via ReaderAt) only after
// the writing party has retired and the writer flushed.
type spillFile struct {
	f    *os.File
	sw   *trace.SegmentWriter
	runs [numStreams][]trace.SegmentRun
}

// spiller is one worker slot's handle: it lazily opens the slot's file
// and owns the reusable flush scratch.
type spiller struct {
	sink *spillSink
	file *spillFile
	// adjScratch / allScratch / retScratch are the reusable buffers
	// runs are staged through; nothing retains them past the Append
	// call.
	adjScratch             []trace.Adjacency
	allScratch, retScratch []inet.Addr
}

func newSpiller(sink *spillSink) *spiller { return &spiller{sink: sink} }

// ensureFile opens the slot's segment on first use.
func (sp *spiller) ensureFile() (*spillFile, error) {
	if sp.file != nil {
		return sp.file, nil
	}
	sf, err := sp.sink.newFile()
	if err != nil {
		return nil, err
	}
	sp.file = sf
	return sf, nil
}

// flushAdjKeys writes a sorted, duplicate-free adjacency key list as
// one adjacency run and reports whether it was spilled (the caller may
// then drop the keys). A list that is empty, or any write failure,
// leaves the keys to the caller — earlier runs in the file remain valid
// either way.
func (sp *spiller) flushAdjKeys(keys []uint64) bool {
	if len(keys) == 0 || sp.sink.failed() != nil {
		return false
	}
	sf, err := sp.ensureFile()
	if err != nil {
		return false
	}
	sp.adjScratch = appendKeyAdjs(sp.adjScratch[:0], keys)
	run, err := sf.sw.AppendAdjacencyRun(sp.adjScratch)
	if err != nil {
		sp.sink.fail(err)
		return false
	}
	sf.runs[streamAdj] = append(sf.runs[streamAdj], run)
	sp.sink.noteRun(run)
	return true
}

// flushFlaggedAddrs writes a sanitise worker's flagged address map as
// its two sorted runs (see sortFlagged) — every address to streamAll,
// the retained ones to streamRet. It reports whether the map may be
// discarded: every non-empty run was spilled.
func (sp *spiller) flushFlaggedAddrs(set map[inet.Addr]uint8) bool {
	sp.allScratch, sp.retScratch = sortFlagged(set, sp.allScratch, sp.retScratch)
	return sp.flushAddrRun(streamAll, sp.allScratch) && sp.flushAddrRun(streamRet, sp.retScratch)
}

// flushAddrRun appends a sorted address run to the given stream,
// reporting whether it was spilled; an empty run needs no spilling.
func (sp *spiller) flushAddrRun(stream int, addrs []inet.Addr) bool {
	if len(addrs) == 0 {
		return true
	}
	if sp.sink.failed() != nil {
		return false
	}
	sf, err := sp.ensureFile()
	if err != nil {
		return false
	}
	run, err := sf.sw.AppendAddrRun(addrs)
	if err != nil {
		sp.sink.fail(err)
		return false
	}
	sf.runs[stream] = append(sf.runs[stream], run)
	sp.sink.noteRun(run)
	return true
}

// adjCursorSource adapts a spilled adjacency run to the merge.
func adjCursorSource(f *os.File, run trace.SegmentRun) (mergeSource[trace.Adjacency], error) {
	cur, err := trace.OpenAdjacencyRun(f, run)
	if err != nil {
		return nil, err
	}
	return func() (trace.Adjacency, bool, error) {
		a, err := cur.Next()
		if err == io.EOF {
			return trace.Adjacency{}, false, nil
		}
		if err != nil {
			return trace.Adjacency{}, false, err
		}
		return a, true, nil
	}, nil
}

// addrCursorSource adapts a spilled address run to the merge.
func addrCursorSource(f *os.File, run trace.SegmentRun) (mergeSource[inet.Addr], error) {
	cur, err := trace.OpenAddrRun(f, run)
	if err != nil {
		return nil, err
	}
	return func() (inet.Addr, bool, error) {
		a, err := cur.Next()
		if err == io.EOF {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		return a, true, nil
	}, nil
}

// mergeEvidence finalises a spilled collector: every spilled run joins
// the in-memory runs (sorted, duplicate-free slices that may overlap:
// the collector's resident adjacency and address runs) in one
// bounded-memory k-way merge per stream. stats must carry the ingest
// counters; the distinct/retained address counts come out of the merge.
// Peak extra memory is one page buffer per open cursor plus the final
// evidence itself.
func (s *spillSink) mergeEvidence(adjRes [][]trace.Adjacency, allRes, retRes [][]inet.Addr,
	stats trace.Stats) (*Evidence, error) {
	if err := s.failed(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	files := slices.Clone(s.files)
	s.mu.Unlock()
	for _, sf := range files {
		if err := sf.sw.Flush(); err != nil {
			s.fail(err)
			return nil, err
		}
	}

	// Adjacency stream: cursors over every spilled run + residue slices.
	var adjSrcs []mergeSource[trace.Adjacency]
	adjBound := 0
	for _, sf := range files {
		for _, run := range sf.runs[streamAdj] {
			src, err := adjCursorSource(sf.f, run)
			if err != nil {
				return nil, err
			}
			adjSrcs = append(adjSrcs, src)
			adjBound += run.Count
		}
	}
	for _, res := range adjRes {
		if len(res) > 0 {
			adjSrcs = append(adjSrcs, sliceSource(res))
			adjBound += len(res)
		}
	}
	adjs := make([]trace.Adjacency, 0, adjBound)
	err := mergeDedup(adjSrcs, adjacencyCmp, func(a trace.Adjacency) { adjs = append(adjs, a) })
	if err != nil {
		return nil, err
	}

	// Address streams: rebuild the AllAddrs set (pre-sized from the run
	// counts) and take the unique counts the Stats report.
	mergeAddrs := func(stream int, res [][]inet.Addr) ([]mergeSource[inet.Addr], int, error) {
		var srcs []mergeSource[inet.Addr]
		bound := 0
		for _, sf := range files {
			for _, run := range sf.runs[stream] {
				src, err := addrCursorSource(sf.f, run)
				if err != nil {
					return nil, 0, err
				}
				srcs = append(srcs, src)
				bound += run.Count
			}
		}
		for _, r := range res {
			if len(r) > 0 {
				srcs = append(srcs, sliceSource(r))
				bound += len(r)
			}
		}
		return srcs, bound, nil
	}
	allSrcs, allBound, err := mergeAddrs(streamAll, allRes)
	if err != nil {
		return nil, err
	}
	allAddrs := make(inet.AddrSet, allBound)
	if err := mergeDedup(allSrcs, addrCmp,
		func(a inet.Addr) { allAddrs[a] = struct{}{} }); err != nil {
		return nil, err
	}
	retSrcs, _, err := mergeAddrs(streamRet, retRes)
	if err != nil {
		return nil, err
	}
	retained := 0
	if err := mergeDedup(retSrcs, addrCmp,
		func(inet.Addr) { retained++ }); err != nil {
		return nil, err
	}

	stats.DistinctAddrs = len(allAddrs)
	stats.RetainedAddrs = retained
	s.mu.Lock()
	s.stats.Merges++
	s.mu.Unlock()
	return &Evidence{AllAddrs: allAddrs, Adjacencies: adjs, Stats: stats}, nil
}
