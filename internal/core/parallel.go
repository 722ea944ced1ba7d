package core

import "sync"

// minChunkFactor gates parallel fan-out: below 4 items per worker the
// goroutine overhead dominates and the serial path wins.
const minChunkFactor = 4

// numChunks reports how many contiguous chunks parallelChunks will split
// n items into for the given worker count (1 when the work stays serial).
func numChunks(n, workers int) int {
	if workers <= 1 || n < minChunkFactor*workers {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// resetShards grows *bufs to at least n per-chunk buffers, truncates
// the first n to length zero, and returns them as a view. Keeping the
// backing arrays on the caller (runState) means the per-worker output
// buffers of a sharded scan are reused across passes instead of
// reallocated each pass.
func resetShards[T any](bufs *[][]T, n int) [][]T {
	for len(*bufs) < n {
		*bufs = append(*bufs, nil)
	}
	view := (*bufs)[:n]
	for i := range view {
		view[i] = view[i][:0]
	}
	return view
}

// parallelChunks splits [0, n) into one contiguous range per worker and
// runs fn(w, lo, hi) on each concurrently, where w is the chunk index
// (dense, in range order). Small inputs run serially as chunk 0. Callers
// that accumulate output per chunk and concatenate in chunk order get
// results identical to a serial left-to-right scan.
func parallelChunks(n, workers int, fn func(w, lo, hi int)) {
	if numChunks(n, workers) == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
