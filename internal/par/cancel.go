package par

import (
	"context"
	"sync/atomic"

	"bicc/internal/obs"
)

// Canceler is a cooperative cancellation token shared by the parallel loops
// of one computation. The long-running engines poll it at chunk boundaries
// and between convergence rounds; tripping it makes them drain quickly
// instead of finishing their work. A nil *Canceler is valid everywhere and
// means "never canceled", so hot paths pay a single nil check when no
// deadline is attached.
//
// The token records the first error passed to Cancel (typically a
// context.Context error) so callers can report why the run stopped.
type Canceler struct {
	err atomic.Pointer[error]
}

// Cancel trips the token with the given cause. The first cause wins;
// subsequent calls are no-ops. A nil err is ignored.
func (c *Canceler) Cancel(err error) {
	if c == nil || err == nil {
		return
	}
	c.err.CompareAndSwap(nil, &err)
}

// Err returns the cancellation cause, or nil if the token has not been
// tripped. It is safe on a nil receiver.
func (c *Canceler) Err() error {
	if c == nil {
		return nil
	}
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Watch trips the token when ctx is done. It returns a stop function that
// must be called (typically deferred) to release the watcher goroutine once
// the computation finishes. Contexts that can never be canceled install no
// watcher and cost nothing.
func (c *Canceler) Watch(ctx context.Context) (stop func()) {
	if c == nil || ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	// Cheap fast path: already expired contexts trip synchronously.
	if err := ctx.Err(); err != nil {
		c.Cancel(err)
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.Cancel(ctx.Err())
		case <-done:
		}
	}()
	return func() { close(done) }
}

// cancelGrain is the number of iterations processed between cancellation
// polls in the chunked loop variants: large enough that the poll is free
// next to real per-item work, small enough that cancellation latency stays
// in the microsecond range on bandwidth-bound bodies.
const cancelGrain = 8192

// ForC is For with cooperative cancellation: each worker walks its block in
// chunks of cancelGrain iterations, polling c between chunks and abandoning
// the remainder once c trips. Bodies must therefore tolerate being invoked
// on sub-ranges of a worker's block (every body written for ForDynamic
// already does). With a nil canceler it is exactly For.
//
// A panic in body does not propagate: it is recovered into c as a
// *PanicError carrying the worker's index, which cancels the sibling
// workers' polls, and ForC returns normally. Callers observe the failure
// through c.Err().
func ForC(c *Canceler, p, n int, body func(lo, hi int)) {
	if c == nil {
		For(p, n, body)
		return
	}
	if k := workers(p, n); k > 0 {
		fork(c, k, func(w int) {
			lo, hi := Block(n, k, w)
			for lo < hi && c.Err() == nil {
				end := min(lo+cancelGrain, hi)
				body(lo, end)
				lo = end
			}
		})
	}
}

// ForDynamicC is ForDynamic with cooperative cancellation: workers poll c
// before claiming each chunk, so a tripped token stops the loop after at
// most one chunk per worker. With a nil canceler it is exactly ForDynamic.
// Panics in body are recovered into c like ForC.
func ForDynamicC(c *Canceler, p, n, grain int, body func(lo, hi int)) {
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
		if c == nil {
			body(0, n)
		} else if c.Err() == nil {
			fork(c, 1, func(int) { body(0, n) })
		}
		return
	}
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	if c != nil {
		chunks(c, p, n, grain, body)
		return
	}
	var own Canceler // ForDynamic's token: only a worker panic trips it
	raise(chunks(&own, p, n, grain, body))
}

// chunks runs p workers that claim chunks of grain items from a shared
// counter until [0, n) runs out or stop trips.
func chunks(stop *Canceler, p, n, grain int, body func(lo, hi int)) *PanicError {
	var next atomic.Int64
	return fork(stop, p, func(int) {
		for stop.Err() == nil {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			if obs.Enabled() {
				mChunks.Inc()
			}
			body(lo, min(lo+grain, n))
		}
	})
}

// RunC is Run with panic containment through the canceler: a worker panic is
// recovered into c as a *PanicError, tripping the polls of sibling workers
// so SPMD bodies that wait on each other (work-stealing loops, shared
// counters) drain instead of deadlocking on a worker that died. RunC returns
// the recovered *PanicError (nil when every worker finished or c tripped for
// another reason). c must not be nil: without a shared token the siblings
// could never learn about the failure.
func RunC(c *Canceler, p int, fn func(worker int)) *PanicError {
	if c == nil {
		panic("par: RunC requires a non-nil Canceler")
	}
	p = Procs(p)
	if obs.Enabled() {
		mTasks.Add(int64(p))
	}
	return fork(c, p, fn)
}
