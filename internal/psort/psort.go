// Package psort implements the parallel sort used as a substrate by the
// TV-SMP Euler-tour construction: the Helman–JáJá parallel sample sort
// (§3.1: "We use the efficient parallel sample sorting routine designed by
// Helman and JáJá").
//
// It orders (uint64 key, int32 payload) records; the biconnectivity code
// packs arcs as min(u,v)<<32 | max(u,v) and carries the arc index as
// payload.
package psort

import (
	"math/rand"
	"sort"

	"bicc/internal/faults"
	"bicc/internal/par"
)

// Fault-injection point: per worker in the sample sort's histogram pass
// (iter 0) and bucket sorts (iter 1). Sorting has no cancellation token, so
// cancel-kind rules are inert here.
var siteSample = faults.RegisterSite("psort.sample", false)

// Pair is a sortable (key, payload) record.
type Pair struct {
	Key uint64
	Val int32
}

// oversample is the number of sample candidates drawn per splitter; larger
// values give better-balanced buckets at negligible cost.
const oversample = 32

// SampleSortPairs sorts xs ascending by Key with p workers using sample
// sort: random splitters partition the input into p buckets, each bucket is
// scattered contiguously and sorted by one worker. The sort is not stable;
// callers that need a deterministic order must use distinct keys (the arc
// encoding guarantees this).
func SampleSortPairs(p int, xs []Pair) {
	n := len(xs)
	p = par.Procs(p)
	if p == 1 || n < 4096 {
		quickSortPairs(xs)
		return
	}
	if p > n/64 {
		p = n / 64
	}
	// Draw p*oversample random samples, sort them, and pick p-1 splitters.
	rng := rand.New(rand.NewSource(int64(n)*2654435761 + 1))
	samples := make([]uint64, p*oversample)
	for i := range samples {
		samples[i] = xs[rng.Intn(n)].Key
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	splitters := make([]uint64, p-1)
	for i := range splitters {
		splitters[i] = samples[(i+1)*oversample]
	}
	// bucketOf locates the bucket for a key by binary search over splitters:
	// bucket b holds keys in (splitters[b-1], splitters[b]].
	bucketOf := func(k uint64) int {
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := (lo + hi) / 2
			if k > splitters[mid] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Pass 1: per-worker bucket histograms.
	counts := make([][]int32, p)
	par.ForWorker(p, n, func(w, lo, hi int) {
		faults.Inject(nil, siteSample, w, 0)
		c := make([]int32, p)
		for i := lo; i < hi; i++ {
			c[bucketOf(xs[i].Key)]++
		}
		counts[w] = c
	})
	// Bucket base offsets, then per-worker cursors within each bucket.
	bucketStart := make([]int, p+1)
	for b := 0; b < p; b++ {
		total := 0
		for w := 0; w < p; w++ {
			if counts[w] == nil {
				continue
			}
			c := int(counts[w][b])
			counts[w][b] = int32(total)
			total += c
		}
		bucketStart[b+1] = bucketStart[b] + total
	}
	// Pass 2: scatter into a contiguous bucket layout.
	tmp := make([]Pair, n)
	par.ForWorker(p, n, func(w, lo, hi int) {
		c := counts[w]
		for i := lo; i < hi; i++ {
			b := bucketOf(xs[i].Key)
			pos := bucketStart[b] + int(c[b])
			c[b]++
			tmp[pos] = xs[i]
		}
	})
	// Pass 3: sort each bucket independently and copy back.
	par.Run(p, func(w int) {
		faults.Inject(nil, siteSample, w, 1)
		seg := tmp[bucketStart[w]:bucketStart[w+1]]
		quickSortPairs(seg)
		copy(xs[bucketStart[w]:bucketStart[w+1]], seg)
	})
}
