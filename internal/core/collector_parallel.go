package core

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
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
// front of its address map, one in front of its adjacency routing and,
// with TrackMonitors, one in front of its attribution run. Traceroute
// views are monitor-rooted trees, so the links near a monitor recur in
// almost every trace it sends: a few thousand entries catch most
// repeats, and the filters stay in cache.
const (
	addrFilterBits = 13
	adjFilterBits  = 13
	monFilterBits  = 13
)

// monCompactMin is the shortest per-monitor key list a sanitise worker
// sorts and deduplicates before its retirement.
const monCompactMin = 1 << 10

// monAdj is one attribution pair: a monitor's collector-wide id and an
// adjacency its retained traces contributed. Runs of pairs sort by
// (mon, First, Second), so a merged run slices into each monitor's
// adjacencies in the canonical order.
type monAdj struct {
	mon uint32
	adj trace.Adjacency
}

// monAdjCmp orders attribution pairs by monitor id, then adjacency.
func monAdjCmp(a, b monAdj) int {
	if c := cmp.Compare(a.mon, b.mon); c != 0 {
		return c
	}
	return adjacencyCmp(a.adj, b.adj)
}

// monSlot is the monitor-filter slot of the pair (mon, the adjacency
// whose adjHash is h).
func monSlot(h uint64, mon uint32) uint64 {
	return (h ^ uint64(mon)*0x9e3779b97f4a7c15) >> (64 - monFilterBits)
}

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
// after Evidence (the pipeline restarts lazily on the next Add), and a
// finalisation costs what arrived since the previous one plus linear
// merges: every Finish compacts the sorted runs it merged (DESIGN.md
// §8).
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
	// base is the adjacency run the last in-memory Finish merged; the
	// shards hold only what arrived since. Evidence.Adjacencies shares
	// it, so it is replaced, never written.
	base []trace.Adjacency

	// Per-monitor attribution (see TrackMonitors); monIDs is nil when
	// tracking is off. A monitor gets the next id when a retained trace
	// first names it; monNames and monTraces are indexed by id, and
	// monRuns hold sorted, duplicate-free attribution runs that Finish
	// merges and compacts. Never spills.
	monIDs    map[string]uint32
	monNames  []string
	monTraces []int
	monRuns   [][]monAdj

	// Out-of-core state; spill is nil for an in-memory collector.
	// shardSpillers persist across pipeline restarts so each shard keeps
	// appending runs to its own segment file. shardLimit / workerLimit
	// are the per-party shares of the byte budget.
	spill         *spillSink
	shardSpillers []*spiller
	shardLimit    int64
	workerLimit   int64

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
		workers: workers,
		shards:  make([]map[trace.Adjacency]struct{}, workers),
	}
	c.resetShards()
	if cfg.enabled() {
		c.enableSpill(cfg)
	}
	return c
}

// resetShards gives every shard an empty set.
func (c *ParallelCollector) resetShards() {
	for i := range c.shards {
		c.shards[i] = make(map[trace.Adjacency]struct{})
	}
}

// enableSpill makes the collector spill under cfg from the next
// pipeline run on.
func (c *ParallelCollector) enableSpill(cfg SpillConfig) {
	c.spill = newSpillSink(cfg)
	c.shardSpillers = make([]*spiller, len(c.shards))
	for i := range c.shardSpillers {
		c.shardSpillers[i] = newSpiller(c.spill)
	}
	// Split the byte budget half to the adjacency shards, half to the
	// workers' address sets, evenly within each side.
	c.shardLimit = cfg.MemBudget / 2 / int64(len(c.shards))
	c.workerLimit = cfg.MemBudget / 2 / int64(c.workers)
}

// TrackMonitors enables per-monitor evidence attribution (see
// Collector.TrackMonitors). It must be called before the first Add of a
// pipeline run — workers snapshot the setting when they start.
func (c *ParallelCollector) TrackMonitors() {
	if c.tracesCh != nil {
		panic("core: TrackMonitors called on a running ParallelCollector")
	}
	if c.monIDs == nil {
		c.monIDs = make(map[string]uint32)
	}
}

// monitorID returns name's collector-wide id, assigning the next one on
// first sight.
func (c *ParallelCollector) monitorID(name string) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.monIDs[name]
	if !ok {
		id = uint32(len(c.monNames))
		name = strings.Clone(name)
		c.monIDs[name] = id
		c.monNames = append(c.monNames, name)
	}
	return id
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
// Direct-mapped filters keep repeats off the maps and runs. An
// address-filter entry holds an address and the flags its map entry had
// when cached: a sighting is a hit only if those flags cover what it
// needs, so a seen-only entry never hides a later retained sighting. An
// adjacency-filter hit means this worker has already routed that
// adjacency, which its shard keeps (or has spilled) until the next
// Finish folds it into the base run. With TrackMonitors, each
// adjacency of a retained trace first meets the monitor filter, whose
// entry is a whole (monitor id, adjacency) pair: a hit means this
// worker has already appended the pair to its attribution run and
// routed the adjacency, so it skips the adjacency filter too.
func (c *ParallelCollector) sanitizeWorker() {
	defer c.sanWG.Done()
	addrs := make(map[inet.Addr]uint8)
	retained := 0                                  // addresses flagged addrRetained
	addrFilter := new([1 << addrFilterBits]uint64) // flags<<32 | addr
	adjFilter := new([1 << adjFilterBits]uint64)   // First<<32 | Second
	var stats trace.Stats
	// Attribution, when tracking: a cache of the collector's monitor
	// ids, and per id the retained traces, the adjacency keys that
	// missed the monitor filter, and the length at which those keys are
	// next sorted and deduplicated in place. An evicted pair misses
	// again, so without that compaction a list would grow with the
	// sightings rather than with the distinct pairs.
	var (
		monIDs       map[string]uint32
		monFilter    *[1 << monFilterBits]monAdj
		monTraces    []int
		monKeys      [][]uint64
		monCompactAt []int
	)
	if c.monIDs != nil {
		monIDs = make(map[string]uint32)
		monFilter = new([1 << monFilterBits]monAdj)
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
			var mon uint32
			if monFilter != nil {
				id, ok := monIDs[t.Monitor]
				if !ok {
					id = c.monitorID(t.Monitor)
					monIDs[t.Monitor] = id
					for int(id) >= len(monTraces) {
						monTraces = append(monTraces, 0)
						monKeys = append(monKeys, nil)
						monCompactAt = append(monCompactAt, monCompactMin)
					}
				}
				mon = id
				monTraces[mon]++
			}
			for _, adj := range scratch {
				key := adjKey(adj)
				h := adjHash(key)
				if monFilter != nil {
					pair := monAdj{mon, adj}
					slot := &monFilter[monSlot(h, mon)]
					if *slot == pair {
						continue
					}
					*slot = pair
					monKeys[mon] = append(monKeys[mon], key)
					if len(monKeys[mon]) >= monCompactAt[mon] {
						monKeys[mon] = sortedKeys(monKeys[mon])
						monCompactAt[mon] = max(2*len(monKeys[mon]), monCompactMin)
					}
				}
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
	monRun := attributionRun(monKeys)
	c.mu.Lock()
	defer c.mu.Unlock()
	if allRun != nil {
		c.allRuns = append(c.allRuns, allRun)
		c.retRuns = append(c.retRuns, retRun)
	}
	if len(monRun) > 0 {
		c.monRuns = append(c.monRuns, monRun)
	}
	if n := len(c.monNames) - len(c.monTraces); n > 0 {
		c.monTraces = append(c.monTraces, make([]int, n)...)
	}
	for id, n := range monTraces {
		c.monTraces[id] += n
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

// sortedKeys sorts and deduplicates keys in place.
func sortedKeys(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// attributionRun sorts and deduplicates a worker's adjacency keys per
// monitor id into one run of pairs in (id, First, Second) order.
func attributionRun(keys [][]uint64) []monAdj {
	n := 0
	for id, ks := range keys {
		keys[id] = sortedKeys(ks)
		n += len(keys[id])
	}
	run := make([]monAdj, 0, n)
	for id, ks := range keys {
		for _, k := range ks {
			run = append(run, monAdj{uint32(id), trace.Adjacency{First: inet.Addr(k >> 32), Second: inet.Addr(k)}})
		}
	}
	return run
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
// sorted shard runs and the base run — plus, in out-of-core mode, every
// spilled run — yielding the globally sorted unique adjacency slice.
// The collector remains usable afterwards, and never writes into
// evidence it has returned.
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
	ev, err := c.spill.mergeEvidence(append(c.sortShards(), c.base), c.allRuns, c.retRuns, c.stats)
	if err != nil {
		return nil, err
	}
	ev.Monitors = c.attribution()
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
// fresh runs, leaving room to append one more.
func (c *ParallelCollector) sortShards() [][]trace.Adjacency {
	runs := make([][]trace.Adjacency, len(c.shards), len(c.shards)+1)
	var wg sync.WaitGroup
	for i, shard := range c.shards {
		wg.Add(1)
		go func(i int, shard map[trace.Adjacency]struct{}) {
			defer wg.Done()
			runs[i] = sortAdjacencySet(shard, nil)
		}(i, shard)
	}
	wg.Wait()
	return runs
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
	if cap(dst) < len(keys) {
		dst = make([]trace.Adjacency, 0, len(keys))
	}
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, trace.Adjacency{First: inet.Addr(k >> 32), Second: inet.Addr(k)})
	}
	return dst
}

// evidenceInMemory merges the sorted shard, base and address runs
// without touching disk; the address runs merge while the shards sort.
// Shards partition the adjacency space and the merge drops what the
// base already holds, so the output matches the serial Collector
// exactly. Every run list is compacted into its merge and the shards
// are emptied, so a long-lived collector's next finalisation sorts only
// what arrived since and merges it with one run per list.
// Evidence.Adjacencies is the new base run, which nothing writes;
// AllAddrs and Monitors are built fresh.
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
	adjs := mergeRuns(append(c.sortShards(), c.base), adjacencyCmp)
	c.base = adjs
	c.resetShards()
	monitors := c.attribution()
	<-done
	c.allRuns, c.retRuns = [][]inet.Addr{all}, [][]inet.Addr{ret}
	stats := c.stats
	stats.DistinctAddrs = len(all)
	stats.RetainedAddrs = len(ret)
	return &Evidence{
		AllAddrs:    allAddrs,
		Adjacencies: adjs,
		Stats:       stats,
		Monitors:    monitors,
	}
}

// attribution merges and compacts the attribution runs, then slices
// the merged run per monitor into Evidence.Monitors, sorted by name;
// nil when tracking is off. The slices are fresh, so later Finishes
// never touch them.
func (c *ParallelCollector) attribution() []MonitorEvidence {
	if c.monIDs == nil {
		return nil
	}
	run := mergeRuns(c.monRuns, monAdjCmp)
	c.monRuns = [][]monAdj{run}
	adjs := make([]trace.Adjacency, len(run))
	for i, p := range run {
		adjs[i] = p.adj
	}
	out := make([]MonitorEvidence, len(c.monNames))
	lo := 0
	for id, name := range c.monNames {
		hi := lo
		for hi < len(run) && run[hi].mon == uint32(id) {
			hi++
		}
		out[id] = MonitorEvidence{Monitor: name, Traces: c.monTraces[id], Adjacencies: adjs[lo:hi:hi]}
		lo = hi
	}
	slices.SortFunc(out, func(a, b MonitorEvidence) int { return strings.Compare(a.Monitor, b.Monitor) })
	return out
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
