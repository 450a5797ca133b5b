// Package par provides the shared-memory parallel runtime used by all
// algorithms in this repository. It plays the role of the POSIX-threads
// layer in Cong & Bader's SMP implementation: fork-join parallel loops over
// index ranges, static block partitioning, dynamic (guided) chunk
// scheduling, parallel reductions, and the work pool of the spanning-tree
// traversal. It has no barriers: every primitive is one fork-join, and all
// of them start their workers through one function, fork.
//
// All primitives honor a caller-supplied processor count p; p = 1 runs on
// the calling goroutine with no goroutine overhead, which keeps
// single-processor baselines honest when measuring speedup.
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

// fork runs body on workers 0..p-1 and joins them: the one place the
// runtime starts workers. p = 1 runs worker 0 on the caller; a larger p
// starts one goroutine per worker and waits for all of them. A worker panic
// never escapes its goroutine (which would kill the process): it becomes a
// *PanicError carrying the worker's index, trips c (when c is non-nil) so
// that siblings polling c drain, and fork returns the first one once every
// worker has joined. The caller picks what happens next: the plain
// primitives re-raise it (raise), the canceler-aware ones return.
func fork(c *Canceler, p int, body func(worker int)) *PanicError {
	if p == 1 {
		return work(c, 0, body)
	}
	var first atomic.Pointer[PanicError]
	var wg sync.WaitGroup
	wg.Add(p)
	for w := range p {
		go func() {
			defer wg.Done()
			if pe := work(c, w, body); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}()
	}
	wg.Wait()
	return first.Load()
}

// work runs worker w. Its deferred capture is the only place the runtime
// recovers a worker panic.
func work(c *Canceler, w int, body func(worker int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = AsPanicError(w, v)
			c.Cancel(pe)
		}
	}()
	body(w)
	return nil
}

// raise re-raises a fork's first worker panic on the calling goroutine,
// where an ordinary recover applies.
func raise(pe *PanicError) {
	if pe != nil {
		panic(pe)
	}
}

// workers is the worker count of a static loop over n items, p clamped to
// n, and counts the tasks it launches.
func workers(p, n int) int {
	p = min(Procs(p), n)
	if obs.Enabled() && p > 0 {
		mTasks.Add(int64(p))
	}
	return p
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
	k := workers(p, n)
	if k == 1 {
		body(0, n)
	} else if k > 1 {
		raise(fork(nil, k, func(w int) {
			lo, hi := Block(n, k, w)
			body(lo, hi)
		}))
	}
}

// ForWorker is For with the worker index passed to the body, for algorithms
// that keep per-worker scratch state (e.g. sample sort buckets).
func ForWorker(p, n int, body func(worker, lo, hi int)) {
	k := workers(p, n)
	if k == 1 {
		body(0, 0, n)
	} else if k > 1 {
		raise(fork(nil, k, func(w int) {
			lo, hi := Block(n, k, w)
			body(w, lo, hi)
		}))
	}
}

// ForDynamic runs body over [0, n) in chunks of the given grain, handed out
// by an atomic counter. It load-balances irregular per-item work (e.g. the
// edge pass of conncomp.Link, whose finds vary in length) at the
// cost of one atomic add per chunk. grain <= 0 picks a grain that yields
// roughly 8 chunks per worker. After a worker panic the other workers claim
// no further chunk, and the panic is re-raised on the caller like For's.
func ForDynamic(p, n, grain int, body func(lo, hi int)) {
	ForDynamicC(nil, p, n, grain, body)
}

// Run launches fn on p workers (worker ids 0..p-1) and waits for all of
// them: one SPMD region, such as sample sort's one bucket per worker. The
// runtime has no barrier to split a region into phases; workers that must
// agree do so through shared atomics or a Pool. Like For, a worker panic
// is joined and re-raised on the caller as a *PanicError. SPMD bodies that
// wait on each other (spin loops on shared counters, Pool.Wait) should
// prefer RunC, whose canceler lets siblings observe the failure and drain
// instead of waiting for a worker that will never arrive.
func Run(p int, fn func(worker int)) {
	p = Procs(p)
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	if p == 1 {
		fn(0)
		return
	}
	raise(fork(nil, p, fn))
}

// ReduceInt64 computes the reduction of f over [0, n) combined with op,
// where op must be associative and id its identity. Each worker folds its
// block sequentially; the p partial results are folded on the caller.
func ReduceInt64(p, n int, id int64, f func(i int) int64, op func(a, b int64) int64) int64 {
	if n <= 0 {
		return id
	}
	partial := make([]int64, min(Procs(p), n))
	ForWorker(p, n, func(w, lo, hi int) {
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
