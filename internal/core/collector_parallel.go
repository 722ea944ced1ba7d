package core

import (
	"runtime"
	"slices"
	"sync"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Batch sizes for the parallel ingest pipeline: traces travel to the
// sanitise workers in batches (amortising channel overhead across the
// per-trace work) and adjacencies travel to the shard owners in batches
// (amortising it across the per-adjacency work).
const (
	traceBatchSize = 256
	adjBatchSize   = 512
)

// traceBatchPool and adjBatchPool recycle the pipeline's batch buffers
// across every ParallelCollector in the process: the consumer of a batch
// hands it back once it has copied out what it keeps — a sanitise
// worker after routing a trace batch's adjacencies, a shard owner after
// inserting an adjacency batch into its set. Pointers to the slices
// travel through the channels so that neither side allocates.
var (
	traceBatchPool = sync.Pool{New: func() any {
		b := make([]trace.Trace, 0, traceBatchSize)
		return &b
	}}
	adjBatchPool = sync.Pool{New: func() any {
		b := make([]trace.Adjacency, 0, adjBatchSize)
		return &b
	}}
)

// putTraceBatch returns a consumed trace batch to its pool, zeroed so the
// pool does not keep the traces' hop slabs alive.
func putTraceBatch(b *[]trace.Trace) {
	clear(*b)
	*b = (*b)[:0]
	traceBatchPool.Put(b)
}

// putAdjBatch returns a consumed adjacency batch to its pool.
func putAdjBatch(b *[]trace.Adjacency) {
	*b = (*b)[:0]
	adjBatchPool.Put(b)
}

// A sanitise worker records each address it sees once, in one map whose
// value flags the two sets the address belongs to: every responding
// address (Evidence.AllAddrs) and the responding addresses of retained
// traces. A retained address is always also seen.
const (
	addrSeen uint8 = 1 << iota
	addrRetained
)

// Each sanitise worker puts a direct-mapped filter of 1<<bits entries in
// front of its address map and one in front of its adjacency routing.
// Traceroute views are monitor-rooted trees, so the links near a monitor
// recur in almost every trace: a few thousand entries catch most
// repeats, and the filters stay in cache.
const (
	addrFilterBits = 13
	adjFilterBits  = 13
)

// addrSlot is a's address-filter slot (Fibonacci hashing).
func addrSlot(a inet.Addr) uint32 {
	return uint32(a) * 0x9e3779b1 >> (32 - addrFilterBits)
}

// ParallelCollector is a sharded, concurrent Collector: traces fan out
// to sanitise workers, each worker routes the surviving adjacencies by
// hash to per-shard deduplication sets, and Evidence() sorts the shards
// in parallel and k-way merges them. Because the shards partition the
// adjacency space and each is sorted before the merge, the merged slice
// — and every Stats field — is byte-identical to what the serial
// Collector produces for the same traces, in any worker configuration.
//
// With a SpillConfig (NewParallelCollectorSpill), shard owners spill
// their adjacency sets and workers spill their address sets to columnar
// disk segments under the shared budget, and finalisation becomes a
// bounded-memory external merge — still byte-identical, for any spill
// threshold, worker count, or segment size (DESIGN.md §11).
//
// Add and Evidence must be called from a single goroutine; the
// concurrency is internal. Like Collector, the collector remains usable
// after Evidence (the pipeline restarts lazily on the next Add).
type ParallelCollector struct {
	workers int
	added   int

	// Persistent state, merged under mu when workers retire. allRuns
	// and retRuns hold sorted, duplicate-free address runs — every
	// responding address, and those on retained traces — that Finish
	// merges and compacts.
	mu      sync.Mutex
	shards  []map[trace.Adjacency]struct{}
	allRuns [][]inet.Addr
	retRuns [][]inet.Addr
	stats   trace.Stats
	// monitors is the opt-in per-vantage-point attribution (see
	// TrackMonitors): workers accumulate locally and merge here at
	// retirement. Nil when tracking is off. Never spills.
	monitors map[string]*monitorAcc

	// Out-of-core state; spill is nil for an in-memory collector.
	// shardSpillers persist across pipeline restarts so each shard keeps
	// appending runs to its own segment file. shardLimit / workerLimit
	// are the per-party shares of the byte budget.
	spill         *spillSink
	shardSpillers []*spiller
	shardLimit    int64
	workerLimit   int64

	// sortScratch holds the per-shard sorted runs between Evidence
	// calls; the merged output never aliases it.
	sortScratch [][]trace.Adjacency

	// Live pipeline; nil between Evidence() and the next Add. batch is
	// the trace batch being filled, nil until the next Add takes one
	// from traceBatchPool.
	tracesCh chan *[]trace.Trace
	shardCh  []chan *[]trace.Adjacency
	sanWG    sync.WaitGroup
	shardWG  sync.WaitGroup
	batch    *[]trace.Trace
}

// NewParallelCollector returns an empty sharded collector with the given
// concurrency; workers < 1 means runtime.GOMAXPROCS(0).
func NewParallelCollector(workers int) *ParallelCollector {
	return NewParallelCollectorSpill(workers, SpillConfig{})
}

// NewParallelCollectorSpill returns a sharded collector that keeps its
// resident dedup state under cfg's budget by spilling columnar runs to
// disk. A disabled cfg (zero value) yields the plain in-memory
// collector.
func NewParallelCollectorSpill(workers int, cfg SpillConfig) *ParallelCollector {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &ParallelCollector{
		workers:     workers,
		shards:      make([]map[trace.Adjacency]struct{}, workers),
		sortScratch: make([][]trace.Adjacency, workers),
	}
	for i := range c.shards {
		c.shards[i] = make(map[trace.Adjacency]struct{})
	}
	if cfg.enabled() {
		c.spill = newSpillSink(cfg)
		c.shardSpillers = make([]*spiller, len(c.shards))
		for i := range c.shardSpillers {
			c.shardSpillers[i] = newSpiller(c.spill)
		}
		// Split the byte budget half to the adjacency shards, half to
		// the workers' address sets, evenly within each side.
		c.shardLimit = cfg.MemBudget / 2 / int64(len(c.shards))
		c.workerLimit = cfg.MemBudget / 2 / int64(workers)
	}
	return c
}

// TrackMonitors enables per-monitor evidence attribution (see
// Collector.TrackMonitors). It must be called before the first Add of a
// pipeline run — workers snapshot the setting when they start.
func (c *ParallelCollector) TrackMonitors() {
	if c.tracesCh != nil {
		panic("core: TrackMonitors called on a running ParallelCollector")
	}
	if c.monitors == nil {
		c.monitors = make(map[string]*monitorAcc)
	}
}

// Add enqueues one trace for sanitisation (§4.1) and evidence
// accumulation. Unlike Collector.Add it does not report retention — the
// trace may still be in flight; Evidence().Stats carries the counts.
func (c *ParallelCollector) Add(t trace.Trace) {
	c.start()
	c.added++
	if c.batch == nil {
		c.batch = traceBatchPool.Get().(*[]trace.Trace)
	}
	*c.batch = append(*c.batch, t)
	if len(*c.batch) >= traceBatchSize {
		c.tracesCh <- c.batch
		c.batch = nil
	}
}

// Traces returns how many traces have been enqueued.
func (c *ParallelCollector) Traces() int { return c.added }

// start spins up the pipeline if it is not already running.
func (c *ParallelCollector) start() {
	if c.tracesCh != nil {
		return
	}
	c.tracesCh = make(chan *[]trace.Trace, 2*c.workers)
	c.shardCh = make([]chan *[]trace.Adjacency, len(c.shards))
	for i := range c.shardCh {
		c.shardCh[i] = make(chan *[]trace.Adjacency, 2*c.workers)
		c.shardWG.Add(1)
		go c.shardOwner(i)
	}
	for w := 0; w < c.workers; w++ {
		c.sanWG.Add(1)
		go c.sanitizeWorker()
	}
}

// drain flushes the pending batch and retires the pipeline, leaving the
// accumulated shard sets and statistics ready to merge.
func (c *ParallelCollector) drain() {
	if c.tracesCh == nil {
		return
	}
	if c.batch != nil {
		c.tracesCh <- c.batch
		c.batch = nil
	}
	close(c.tracesCh)
	c.sanWG.Wait()
	for _, ch := range c.shardCh {
		close(ch)
	}
	c.shardWG.Wait()
	c.tracesCh = nil
	c.shardCh = nil
}

// sanitizeWorker consumes trace batches, sanitises each trace, and
// routes its adjacencies to the owning shard. Addresses (in one flagged
// map, see addrSeen) and statistics accumulate worker-locally; at
// retirement the addresses leave as two sorted runs, into the
// collector's run lists or — in out-of-core mode — the worker's own
// spill segment, so the resident set stays bounded.
//
// Two direct-mapped filters keep repeats off the maps. An address-filter
// entry holds an address and the flags its map entry had when cached:
// a sighting is a hit only if those flags cover what it needs, so a
// seen-only entry never hides a later retained sighting. An
// adjacency-filter hit means this worker has already routed that
// adjacency, which its shard keeps (or has spilled) for good.
func (c *ParallelCollector) sanitizeWorker() {
	defer c.sanWG.Done()
	addrs := make(map[inet.Addr]uint8)
	retained := 0                                  // addresses flagged addrRetained
	addrFilter := new([1 << addrFilterBits]uint64) // flags<<32 | addr
	adjFilter := new([1 << adjFilterBits]uint64)   // First<<32 | Second
	var stats trace.Stats
	var monitors map[string]*monitorAcc
	if c.monitors != nil {
		monitors = make(map[string]*monitorAcc)
	}
	bufs := make([]*[]trace.Adjacency, len(c.shardCh))
	for s := range bufs {
		bufs[s] = adjBatchPool.Get().(*[]trace.Adjacency)
	}
	var scratch []trace.Adjacency
	var sp *spiller
	if c.spill != nil {
		sp = newSpiller(c.spill)
	}
	for batch := range c.tracesCh {
		for _, t := range *batch {
			stats.TotalTraces++
			clean, res := trace.Sanitize(t)
			stats.RemovedHops += res.RemovedHops
			// Without a discard, clean.Hops is t.Hops with the removed
			// hops nulled, index for index.
			for i, h := range t.Hops {
				if !h.Responded() {
					continue
				}
				want := addrSeen
				if !res.Discarded && clean.Hops[i].Responded() {
					want |= addrRetained
				}
				slot := &addrFilter[addrSlot(h.Addr)]
				if uint32(*slot) == uint32(h.Addr) && want&^uint8(*slot>>32) == 0 {
					continue
				}
				f := addrs[h.Addr]
				if f&want != want {
					if want&^f&addrRetained != 0 {
						retained++
					}
					f |= want
					addrs[h.Addr] = f
				}
				*slot = uint64(f)<<32 | uint64(h.Addr)
			}
			if res.Discarded {
				stats.DiscardedTraces++
				continue
			}
			scratch = trace.Adjacencies(clean, scratch[:0])
			if monitors != nil {
				recordMonitor(monitors, t.Monitor, scratch)
			}
			for _, adj := range scratch {
				key := adjKey(adj)
				h := adjHash(key)
				slot := &adjFilter[h>>(64-adjFilterBits)]
				if *slot == key {
					continue
				}
				*slot = key
				s := int(h % uint64(len(bufs)))
				buf := bufs[s]
				*buf = append(*buf, adj)
				if len(*buf) >= adjBatchSize {
					c.shardCh[s] <- buf
					bufs[s] = adjBatchPool.Get().(*[]trace.Adjacency)
				}
			}
		}
		putTraceBatch(batch)
		if sp != nil && c.addrsOverLimit(len(addrs), retained) && sp.flushFlaggedAddrs(addrs) {
			addrs = make(map[inet.Addr]uint8)
			retained = 0
			clear(addrFilter[:])
		}
	}
	for s, buf := range bufs {
		if len(*buf) > 0 {
			c.shardCh[s] <- buf
		} else {
			putAdjBatch(buf)
		}
	}
	// Retirement: sort here, outside the lock. A failed flush (sticky
	// sink error) falls through to the run lists — finalisation will
	// report the error, and the data is not silently lost meanwhile.
	var allRun, retRun []inet.Addr
	if sp == nil || !sp.flushFlaggedAddrs(addrs) {
		allRun, retRun = sortFlagged(addrs, make([]inet.Addr, 0, len(addrs)), make([]inet.Addr, 0, retained))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if allRun != nil {
		c.allRuns = append(c.allRuns, allRun)
		c.retRuns = append(c.retRuns, retRun)
	}
	for name, acc := range monitors {
		dst := c.monitors[name]
		if dst == nil {
			c.monitors[name] = acc
			continue
		}
		dst.traces += acc.traces
		for adj := range acc.adjs {
			dst.adjs[adj] = struct{}{}
		}
	}
	c.stats.TotalTraces += stats.TotalTraces
	c.stats.DiscardedTraces += stats.DiscardedTraces
	c.stats.RemovedHops += stats.RemovedHops
}

// addrsOverLimit applies the worker-share budget (or the RunEntries
// testing knob) to a worker's address map: all is its length, retained
// its count of addrRetained flags.
func (c *ParallelCollector) addrsOverLimit(all, retained int) bool {
	if n := c.spill.cfg.RunEntries; n > 0 {
		return all >= n || retained >= n
	}
	return int64(all+retained)*addrEntryCost > c.workerLimit
}

// sortFlagged splits a flagged address map into its two sorted runs,
// reusing the capacity of all and ret: every address, and the addresses
// flagged addrRetained, picked from the first run in order.
func sortFlagged(set map[inet.Addr]uint8, all, ret []inet.Addr) ([]inet.Addr, []inet.Addr) {
	all, ret = all[:0], ret[:0]
	for a := range set {
		all = append(all, a)
	}
	slices.Sort(all)
	for _, a := range all {
		if set[a]&addrRetained != 0 {
			ret = append(ret, a)
		}
	}
	return all, ret
}

// shardOwner deduplicates the adjacency batches routed to shard i. Each
// shard is owned by exactly one goroutine, so no locking is needed; in
// out-of-core mode the owner flushes its set as a sorted run whenever
// it crosses the shard's budget share.
func (c *ParallelCollector) shardOwner(i int) {
	defer c.shardWG.Done()
	set := c.shards[i]
	var sp *spiller
	var limit int
	if c.spill != nil {
		sp = c.shardSpillers[i]
		if n := c.spill.cfg.RunEntries; n > 0 {
			limit = n
		} else {
			limit = int(c.shardLimit / adjEntryCost)
		}
		limit = max(limit, 1)
	}
	for batch := range c.shardCh[i] {
		for _, adj := range *batch {
			set[adj] = struct{}{}
		}
		putAdjBatch(batch)
		if sp != nil && len(set) >= limit && sp.flushAdjSet(set) {
			set = make(map[trace.Adjacency]struct{})
			c.shards[i] = set
		}
	}
}

// Evidence drains the pipeline and finalises the collected evidence.
// On a spilling collector prefer Finish — Evidence panics if the
// external merge fails (the in-memory path cannot fail).
func (c *ParallelCollector) Evidence() *Evidence {
	ev, err := c.Finish()
	if err != nil {
		panic("core: spill merge failed: " + err.Error())
	}
	return ev
}

// Finish drains the pipeline and finalises the collected evidence:
// per-shard parallel sorts followed by a k-way loser-tree merge of the
// sorted shard runs — plus, in out-of-core mode, every spilled run —
// yielding the globally sorted unique adjacency slice. The collector
// remains usable afterwards.
func (c *ParallelCollector) Finish() (*Evidence, error) {
	c.drain()
	if c.spill == nil || !c.spill.spilled() {
		if c.spill != nil {
			if err := c.spill.failed(); err != nil {
				return nil, err
			}
		}
		return c.evidenceInMemory(), nil
	}
	ev, err := c.spill.mergeEvidence(c.sortShards(), c.allRuns, c.retRuns, c.stats)
	if err != nil {
		return nil, err
	}
	ev.Monitors = monitorEvidence(c.monitors)
	return ev, nil
}

// SpillStats snapshots the out-of-core counters; zero for an in-memory
// collector.
func (c *ParallelCollector) SpillStats() SpillStats {
	if c.spill == nil {
		return SpillStats{}
	}
	return c.spill.Stats()
}

// Close stops a live pipeline — a failed ingest leaves one running —
// discarding its pending batch, and releases the collector's spill
// files. The collector must not be used afterwards.
func (c *ParallelCollector) Close() error {
	if c.batch != nil {
		putTraceBatch(c.batch)
		c.batch = nil
	}
	c.drain()
	if c.spill == nil {
		return nil
	}
	return c.spill.close()
}

// sortShards extracts and sorts every shard's residue in parallel into
// the reused scratch runs.
func (c *ParallelCollector) sortShards() [][]trace.Adjacency {
	var wg sync.WaitGroup
	for i, shard := range c.shards {
		wg.Add(1)
		go func(i int, shard map[trace.Adjacency]struct{}) {
			defer wg.Done()
			c.sortScratch[i] = sortAdjacencySet(shard, c.sortScratch[i])
		}(i, shard)
	}
	wg.Wait()
	return c.sortScratch
}

// sortAdjacencySet writes set's adjacencies into dst's storage in the
// canonical (First, Second) order. It sorts their keys (adjKey), which
// order the same way, because an ordered sort needs no comparison
// callback.
func sortAdjacencySet(set map[trace.Adjacency]struct{}, dst []trace.Adjacency) []trace.Adjacency {
	keys := make([]uint64, 0, len(set))
	for adj := range set {
		keys = append(keys, adjKey(adj))
	}
	slices.Sort(keys)
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, trace.Adjacency{First: inet.Addr(k >> 32), Second: inet.Addr(k)})
	}
	return dst
}

// evidenceInMemory merges the sorted shard and address runs without
// touching disk; the address runs merge while the shards sort. Shards
// partition the adjacency space, so the dedup in the shared merge is a
// no-op there and the output matches the serial Collector exactly. The
// address runs are compacted into their merge, so a long-lived
// collector's next finalisation merges one run per set plus what
// arrived since; AllAddrs is built fresh, insulating the evidence from
// later Adds.
func (c *ParallelCollector) evidenceInMemory() *Evidence {
	var all, ret []inet.Addr
	var allAddrs inet.AddrSet
	done := make(chan struct{})
	go func() {
		defer close(done)
		all = mergeRuns(c.allRuns, addrCmp)
		ret = mergeRuns(c.retRuns, addrCmp)
		allAddrs = make(inet.AddrSet, len(all))
		for _, a := range all {
			allAddrs[a] = struct{}{}
		}
	}()
	adjs := mergeRuns(c.sortShards(), adjacencyCmp)
	<-done
	c.allRuns, c.retRuns = [][]inet.Addr{all}, [][]inet.Addr{ret}
	stats := c.stats
	stats.DistinctAddrs = len(all)
	stats.RetainedAddrs = len(ret)
	return &Evidence{
		AllAddrs:    allAddrs,
		Adjacencies: adjs,
		Stats:       stats,
		Monitors:    monitorEvidence(c.monitors),
	}
}

// adjKey packs an adjacency into one word, First<<32|Second; keys
// order as the canonical (First, Second) order does.
func adjKey(a trace.Adjacency) uint64 { return uint64(a.First)<<32 | uint64(a.Second) }

// adjHash mixes an adjacency key with the SplitMix64 finaliser
// constant. A worker routes the adjacency to shard adjHash % shards and
// caches its key in the adjacency-filter slot named by the top bits,
// so both stay balanced even on structured corpora.
func adjHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
