package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket k counts
// observations in [2^(k-1), 2^k) microseconds (bucket 0 is sub-microsecond),
// with the last bucket open above. 32 buckets span 1 µs to over an hour.
const histBuckets = 32

// Histogram is a lock-free latency histogram with power-of-two microsecond
// buckets, cheap enough to sit on every request path. The Prometheus
// writer reads its buckets directly.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	k := bits.Len64(uint64(us)) // 0µs→0, 1µs→1, [2,4)→2, ...
	if k >= histBuckets {
		k = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[k].Add(1)
}
