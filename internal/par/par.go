// Package par provides the shared-memory parallel runtime used by all
// algorithms in this repository. It plays the role of the POSIX-threads +
// software-barrier layer in Cong & Bader's SMP implementation: fork-join
// parallel loops over index ranges, static block partitioning, dynamic
// (guided) chunk scheduling, parallel reductions, and reusable barriers.
//
// All primitives honor a caller-supplied processor count p; p <= 1 executes
// sequentially with no goroutine overhead, which keeps single-processor
// baselines honest when measuring speedup.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bicc/internal/obs"
)

// Procs returns the effective processor count for a requested value.
// A request of 0 or below means "use GOMAXPROCS".
func Procs(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Block computes the half-open index range [lo, hi) assigned to worker i of
// p when n items are split into p nearly-equal contiguous blocks. Workers
// with index < n%p receive one extra item, so block sizes differ by at most
// one.
func Block(n, p, i int) (lo, hi int) {
	if p <= 0 {
		p = 1
	}
	q, r := n/p, n%p
	if i < r {
		lo = i * (q + 1)
		hi = lo + q + 1
		return lo, hi
	}
	lo = r*(q+1) + (i-r)*q
	hi = lo + q
	return lo, hi
}

// For runs body(lo, hi) over a static block partition of [0, n) using p
// workers. Each worker receives exactly one contiguous block, which is the
// scheduling regime of the paper's SMP codes (one thread per processor,
// block-distributed loops). body must be safe to run concurrently on
// disjoint ranges.
//
// A panic in body never escapes a worker goroutine (which would kill the
// process): all workers are joined and the first panic is re-raised on the
// calling goroutine as a *PanicError, recoverable like any ordinary panic.
func For(p, n int, body func(lo, hi int)) {
	p = Procs(p)
	if n <= 0 {
		return
	}
	if p == 1 || n == 1 {
		if obs.Enabled() {
			mTasks.Inc()
		}
		body(0, n)
		return
	}
	if p > n {
		p = n
	}
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		lo, hi := Block(n, p, i)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer pb.capture(w)
			body(lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

// ForWorker is For with the worker index passed to the body, for algorithms
// that keep per-worker scratch state (e.g. sample sort buckets).
func ForWorker(p, n int, body func(worker, lo, hi int)) {
	p = Procs(p)
	if n <= 0 {
		return
	}
	if p == 1 || n == 1 {
		if obs.Enabled() {
			mTasks.Inc()
		}
		body(0, 0, n)
		return
	}
	if p > n {
		p = n
	}
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		lo, hi := Block(n, p, i)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer pb.capture(w)
			body(w, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

// ForDynamic runs body over [0, n) in chunks of the given grain, handed out
// by an atomic counter. It load-balances irregular per-item work (e.g. the
// edge pass of conncomp.Link, whose finds vary in length) at the
// cost of one atomic add per chunk. grain <= 0 picks a grain that yields
// roughly 8 chunks per worker.
func ForDynamic(p, n, grain int, body func(lo, hi int)) {
	p = Procs(p)
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n/(8*p) + 1
	}
	if p == 1 || n <= grain {
		if obs.Enabled() {
			mTasks.Inc()
			mChunks.Inc()
		}
		body(0, n)
		return
	}
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	var pb panicBox
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(w int) {
			defer wg.Done()
			defer pb.capture(w)
			for {
				if pb.first.Load() != nil {
					return // a sibling panicked; stop claiming chunks
				}
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				if obs.Enabled() {
					mChunks.Inc()
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}(i)
	}
	wg.Wait()
	pb.rethrow()
}

// Run launches fn on p workers (worker ids 0..p-1) and waits for all of
// them; the SPMD building block used by the multi-phase algorithms that need
// barriers between phases. Like For, a worker panic is joined and re-raised
// on the caller as a *PanicError. SPMD bodies that synchronize with each
// other (barriers, spin loops on shared counters) should prefer RunC, whose
// canceler lets siblings observe the failure and drain instead of waiting
// for a worker that will never arrive.
func Run(p int, fn func(worker int)) {
	p = Procs(p)
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	if p == 1 {
		fn(0)
		return
	}
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(w int) {
			defer wg.Done()
			defer pb.capture(w)
			fn(w)
		}(i)
	}
	wg.Wait()
	pb.rethrow()
}

// Barrier is a reusable software barrier for p participants, the analogue of
// the paper's software-based barriers. It is a classic two-phase sense-
// reversing barrier built on a condition variable.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	phase   uint64
}

// NewBarrier returns a barrier for the given number of participants.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		parties = 1
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait, then releases them all.
// The barrier is immediately reusable for the next phase.
func (b *Barrier) Wait() {
	if obs.Enabled() {
		mBarrierWaits.Inc()
	}
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// ReduceInt64 computes the reduction of f over [0, n) combined with op,
// where op must be associative and id its identity. Each worker folds its
// block sequentially; the p partial results are folded on the caller.
func ReduceInt64(p, n int, id int64, f func(i int) int64, op func(a, b int64) int64) int64 {
	p = Procs(p)
	if n <= 0 {
		return id
	}
	if p > n {
		p = n
	}
	partial := make([]int64, p)
	For(p, n, func(lo, hi int) {
		// Identify our worker slot by block; recompute the block index from lo.
		// Blocks are contiguous and ordered, so find the worker via Block math.
		w := workerOf(n, p, lo)
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		partial[w] = acc
	})
	acc := id
	for _, v := range partial {
		acc = op(acc, v)
	}
	return acc
}

// workerOf inverts Block: which worker owns index lo as the start of its
// block when n items are split across p workers.
func workerOf(n, p, lo int) int {
	q, r := n/p, n%p
	if q == 0 {
		return lo
	}
	if lo < r*(q+1) {
		return lo / (q + 1)
	}
	return r + (lo-r*(q+1))/q
}

// MaxInt32 returns the maximum of f over [0, n), or def on an empty range.
func MaxInt32(p, n int, def int32, f func(i int) int32) int32 {
	v := ReduceInt64(p, n, int64(def), func(i int) int64 { return int64(f(i)) },
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
	return int32(v)
}

// CountTrue counts indices in [0, n) where pred holds, in parallel.
func CountTrue(p, n int, pred func(i int) bool) int {
	v := ReduceInt64(p, n, 0, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	}, func(a, b int64) int64 { return a + b })
	return int(v)
}
