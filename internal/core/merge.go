package core

// Bounded-memory k-way merge for the out-of-core evidence store
// (DESIGN.md §11). Spilled runs come back as streaming cursors; the
// merge must interleave k of them (plus the in-memory residue) into one
// globally sorted, duplicate-free stream while holding only one head
// element per source. A loser tree does that with ⌈log₂k⌉ comparisons
// per output element — versus k for the linear min-scan the in-memory
// merge used — and both the spill and in-memory paths now share it, so
// the merge order (and therefore the output bytes) cannot diverge
// between them.

// mergeSource pulls the next element of one sorted run: it returns
// (element, true, nil) while the run lasts, (zero, false, nil) at a
// clean end, and a non-nil error on a corrupt or unreadable run.
type mergeSource[T any] func() (T, bool, error)

// sliceSource adapts an in-memory sorted run.
func sliceSource[T any](run []T) mergeSource[T] {
	i := 0
	return func() (T, bool, error) {
		if i >= len(run) {
			var zero T
			return zero, false, nil
		}
		v := run[i]
		i++
		return v, true, nil
	}
}

// loserTree is a tournament tree over k sources. tree[0] holds the
// overall winner; tree[1..k-1] hold the losers along each winner's path,
// so replacing the winner replays exactly one leaf-to-root path.
// Sources that error are surfaced immediately; exhausted sources lose
// every comparison. Ties break toward the lower source index, making
// the merge deterministic for overlapping runs.
type loserTree[T any] struct {
	cmp   func(a, b T) int
	srcs  []mergeSource[T]
	heads []T
	live  []bool
	tree  []int
	k     int
}

// newLoserTree primes every source and builds the tournament.
func newLoserTree[T any](srcs []mergeSource[T], cmp func(a, b T) int) (*loserTree[T], error) {
	k := len(srcs)
	lt := &loserTree[T]{
		cmp:   cmp,
		srcs:  srcs,
		heads: make([]T, k),
		live:  make([]bool, k),
		tree:  make([]int, max(k, 1)),
		k:     k,
	}
	for i, src := range srcs {
		v, ok, err := src()
		if err != nil {
			return nil, err
		}
		lt.heads[i], lt.live[i] = v, ok
	}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for i := 0; i < k; i++ {
		lt.replay(i)
	}
	return lt, nil
}

// beats reports whether contender a wins against b and keeps climbing.
// The -1 sentinel exists only during construction: it wins every climb,
// so each real index gets deposited as a loser exactly once and the
// sentinels are fully displaced once all k leaves have been played.
func (lt *loserTree[T]) beats(a, b int) bool {
	if a == -1 {
		return true
	}
	if b == -1 {
		return false
	}
	if !lt.live[a] || !lt.live[b] {
		if lt.live[a] != lt.live[b] {
			return lt.live[a]
		}
		return a < b
	}
	if c := lt.cmp(lt.heads[a], lt.heads[b]); c != 0 {
		return c < 0
	}
	return a < b
}

// replay plays leaf i's path to the root, storing losers on the way.
func (lt *loserTree[T]) replay(i int) {
	w := i
	for t := (i + lt.k) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], w) {
			w, lt.tree[t] = lt.tree[t], w
		}
	}
	lt.tree[0] = w
}

// next pops the smallest head across all live sources.
func (lt *loserTree[T]) next() (T, bool, error) {
	var zero T
	w := lt.tree[0]
	if w < 0 || !lt.live[w] {
		return zero, false, nil
	}
	v := lt.heads[w]
	nv, ok, err := lt.srcs[w]()
	if err != nil {
		return zero, false, err
	}
	lt.heads[w], lt.live[w] = nv, ok
	lt.replay(w)
	return v, true, nil
}

// mergeDedup streams the merged union of sorted runs to yield, dropping
// duplicates. Each run must itself be sorted and duplicate-free (they
// are snapshots of dedup structures), but runs may overlap: duplicates
// across runs collapse because equal elements exit the tree
// consecutively (ties break by source index, and every source is
// strictly increasing). Memory is O(k) heads regardless of run sizes.
func mergeDedup[T comparable](srcs []mergeSource[T], cmp func(a, b T) int, yield func(T)) error {
	lt, err := newLoserTree(srcs, cmp)
	if err != nil {
		return err
	}
	var last T
	first := true
	for {
		v, ok, err := lt.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if first || v != last {
			yield(v)
			last, first = v, false
		}
	}
}

// mergeRuns merges in-memory sorted, duplicate-free runs into one fresh
// sorted, duplicate-free slice of exactly its length: a collector keeps
// the result as its compacted run, so it must not carry the slack that
// collapsed duplicates leave.
func mergeRuns[T comparable](runs [][]T, cmp func(a, b T) int) []T {
	total := 0
	srcs := make([]mergeSource[T], len(runs))
	for i, r := range runs {
		total += len(r)
		srcs[i] = sliceSource(r)
	}
	out := make([]T, 0, total)
	// Slice sources cannot fail, so the merge cannot either.
	if err := mergeDedup(srcs, cmp, func(v T) { out = append(out, v) }); err != nil {
		panic("core: in-memory merge failed: " + err.Error())
	}
	if len(out) < cap(out) {
		out = append(make([]T, 0, len(out)), out...)
	}
	return out
}
