// Package prefix implements parallel prefix computations (scans) in the
// style of Helman and JáJá's SMP prefix-sum algorithm: each of p workers
// scans a contiguous block sequentially, block totals are scanned on one
// processor, and a second parallel pass adds each block's offset. Total work
// is O(n) with two sweeps over the data, which is the cache behaviour the
// paper relies on when it replaces list ranking with prefix sums in TV-opt.
//
// The package also provides scan-based stream compaction, the primitive that
// paper Algorithm 1 uses to number nontree edges and compact the staged
// auxiliary edge list.
package prefix

import (
	"bicc/internal/faults"
	"bicc/internal/par"
)

// Fault-injection points: one per worker in the first scan pass and in the
// compaction scatter. Prefix sums have no cancellation token, so injected
// cancellations are inert here; panics surface through the par runtime.
var (
	siteScan    = faults.RegisterSite("prefix.scan", false)
	siteCompact = faults.RegisterSite("prefix.compact", false)
)

// InclusiveSum32 computes in-place inclusive prefix sums of xs using p
// workers: xs[i] becomes xs[0]+...+xs[i]. It returns the total.
func InclusiveSum32(p int, xs []int32) int32 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p = par.Procs(p)
	if p == 1 || n < 2*p {
		var acc int32
		for i := range xs {
			acc += xs[i]
			xs[i] = acc
		}
		return acc
	}
	if p > n {
		p = n
	}
	totals := make([]int32, p)
	// Pass 1: sequential scan within each block; record block totals.
	par.ForWorker(p, n, func(w, lo, hi int) {
		faults.Inject(nil, siteScan, w, 0)
		var acc int32
		for i := lo; i < hi; i++ {
			acc += xs[i]
			xs[i] = acc
		}
		totals[w] = acc
	})
	// Scan of block totals (p is small; do it sequentially).
	var acc int32
	for i := range totals {
		t := totals[i]
		totals[i] = acc
		acc += t
	}
	// Pass 2: add each block's offset.
	par.ForWorker(p, n, func(w, lo, hi int) {
		off := totals[w]
		if off == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			xs[i] += off
		}
	})
	return acc
}

// ExclusiveSum32 computes in-place exclusive prefix sums: xs[i] becomes
// xs[0]+...+xs[i-1], with xs[0] = 0. It returns the total of the original
// values.
func ExclusiveSum32(p int, xs []int32) int32 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	total := InclusiveSum32(p, xs)
	// Shift right by one in parallel: xs[i] = inclusive[i-1].
	// Work backwards within blocks so values are read before overwritten;
	// block boundaries need the predecessor's last inclusive value, which is
	// still intact because blocks are processed independently after saving
	// boundary values.
	p = par.Procs(p)
	if p > n {
		p = n
	}
	boundary := make([]int32, p) // inclusive value just before each block
	par.ForWorker(p, n, func(w, lo, hi int) {
		if lo == 0 {
			boundary[w] = 0
		} else {
			boundary[w] = xs[lo-1]
		}
	})
	par.ForWorker(p, n, func(w, lo, hi int) {
		for i := hi - 1; i > lo; i-- {
			xs[i] = xs[i-1]
		}
		xs[lo] = boundary[w]
	})
	return total
}

// InclusiveSum64 is InclusiveSum32 for int64 values.
func InclusiveSum64(p int, xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p = par.Procs(p)
	if p == 1 || n < 2*p {
		var acc int64
		for i := range xs {
			acc += xs[i]
			xs[i] = acc
		}
		return acc
	}
	if p > n {
		p = n
	}
	totals := make([]int64, p)
	par.ForWorker(p, n, func(w, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += xs[i]
			xs[i] = acc
		}
		totals[w] = acc
	})
	var acc int64
	for i := range totals {
		t := totals[i]
		totals[i] = acc
		acc += t
	}
	par.ForWorker(p, n, func(w, lo, hi int) {
		off := totals[w]
		if off == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			xs[i] += off
		}
	})
	return acc
}

// InclusiveMin32 computes in-place inclusive prefix minima of xs.
func InclusiveMin32(p int, xs []int32) {
	scan32(p, xs, func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	})
}

// InclusiveMax32 computes in-place inclusive prefix maxima of xs.
func InclusiveMax32(p int, xs []int32) {
	scan32(p, xs, func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	})
}

// scan32 is the generic two-pass block scan for an associative op. The
// second pass combines each block's prefix with the scanned block totals.
func scan32(p int, xs []int32, op func(a, b int32) int32) {
	n := len(xs)
	if n == 0 {
		return
	}
	p = par.Procs(p)
	if p == 1 || n < 2*p {
		for i := 1; i < n; i++ {
			xs[i] = op(xs[i-1], xs[i])
		}
		return
	}
	if p > n {
		p = n
	}
	totals := make([]int32, p)
	par.ForWorker(p, n, func(w, lo, hi int) {
		faults.Inject(nil, siteScan, w, 1)
		for i := lo + 1; i < hi; i++ {
			xs[i] = op(xs[i-1], xs[i])
		}
		totals[w] = xs[hi-1]
	})
	// Exclusive scan of totals; worker 0 has no offset.
	for i := 1; i < p; i++ {
		totals[i] = op(totals[i-1], totals[i])
	}
	par.ForWorker(p, n, func(w, lo, hi int) {
		if w == 0 {
			return
		}
		off := totals[w-1]
		for i := lo; i < hi; i++ {
			xs[i] = op(off, xs[i])
		}
	})
}

// Compact writes the indices i in [0, n) for which keep(i) holds into a new
// slice, preserving order, using a prefix sum over 0/1 flags — the paper's
// "compact L into G' using prefix-sum" step. It runs with p workers.
func Compact(p, n int, keep func(i int) bool) []int32 {
	if n == 0 {
		return nil
	}
	flags := make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep(i) {
				flags[i] = 1
			}
		}
	})
	total := ExclusiveSum32(p, flags)
	out := make([]int32, total)
	par.For(p, n, func(lo, hi int) {
		faults.Inject(nil, siteCompact, 0, lo)
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[flags[i]] = int32(i)
			}
		}
	})
	return out
}
