package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bicc/internal/obs"
)

// Pool is the shared work pool of the Bader–Cong spanning-tree traversal.
// Each worker expands vertex ids from a private stack and reaches the pool
// only to feed an idle worker (Give, when Hungry) or to wait for work once
// its stack runs dry (Wait), so the expansion path takes no lock and writes
// no shared counter.
type Pool struct {
	procs int
	mu    sync.Mutex
	items []int32
	// idle counts workers inside Wait and avail the pooled items; both
	// change only under mu and are read without it.
	idle, avail atomic.Int32
}

// NewPool returns an empty pool shared by p workers.
func NewPool(p int) *Pool { return &Pool{procs: p} }

// Hungry reports whether some worker waits for work that the pool does not
// hold: one atomic load each, for the busy workers to test after every
// expansion.
func (q *Pool) Hungry() bool { return q.idle.Load() > 0 && q.avail.Load() == 0 }

// Give moves items into the pool.
func (q *Pool) Give(items []int32) {
	q.mu.Lock()
	q.items = append(q.items, items...)
	q.avail.Store(int32(len(q.items)))
	q.mu.Unlock()
}

// Wait is called by a worker with an empty stack. It marks the worker idle
// until it can append half the pool to buf (the newest items, rounded up),
// and returns false instead once every worker is idle with the pool empty —
// a worker goes idle only with an empty stack, so no work remains — or
// once c trips.
func (q *Pool) Wait(c *Canceler, buf []int32) ([]int32, bool) {
	q.mu.Lock()
	q.idle.Add(1)
	for {
		if n := len(q.items); n > 0 {
			k := (n + 1) / 2
			buf = append(buf, q.items[n-k:]...)
			q.items = q.items[:n-k]
			q.avail.Store(int32(n - k))
			q.idle.Add(-1)
			q.mu.Unlock()
			if obs.Enabled() {
				mSteals.Inc()
			}
			return buf, true
		}
		if int(q.idle.Load()) == q.procs {
			q.mu.Unlock()
			return buf, false
		}
		q.mu.Unlock()
		for q.avail.Load() == 0 && int(q.idle.Load()) < q.procs {
			if c.Err() != nil {
				return buf, false
			}
			runtime.Gosched()
		}
		q.mu.Lock()
	}
}
