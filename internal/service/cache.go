package service

import (
	"container/list"
	"context"
	"sync"

	"bicc"
	"bicc/internal/core"
)

// resultKey identifies a cacheable computation: same graph content, same
// algorithm, same worker count. Procs is part of the key because the
// algorithm actually run (and its phase timings) depend on it — Auto
// resolves to Sequential at p=1. gen is the graph's mutation generation:
// a mutated graph keeps its stable id, so the generation is what separates
// results computed against different edge lists under one fingerprint.
type resultKey struct {
	fp    string
	gen   uint64
	algo  bicc.Algorithm
	procs int
}

// cacheEntry is one computation, either in flight or completed. ready is
// closed exactly once when res/err become valid.
type cacheEntry struct {
	ready chan struct{}
	res   *queryResult
	err   error

	// waiters counts requests currently interested in the computation; when
	// it drops to zero before completion the computation's context is
	// canceled (nobody wants the answer anymore). Guarded by the cache mu.
	waiters int
	cancel  context.CancelFunc
	done    bool
	elem    *list.Element // LRU position once completed
	bytes   int64         // estimated resident size, charged while cached

	// blocks is the per-block index of a completed entry, built by the
	// first per-block query (BlockIndex) and charged to bytes. building is
	// non-nil while that build runs and is closed when it ends.
	blocks   *core.BlockIndex
	building chan struct{}
}

// ResultCache is a single-flight LRU cache of BCC query results. Concurrent
// queries for the same (graph, algorithm, procs) coalesce onto one engine
// computation; completed results are kept for maxEntries keys, and within
// memBudget estimated bytes when that is set, and evicted least recently
// used. An evicted result is dropped: the next query for it recomputes.
//
// Errors and degraded results are never cached: a failed, canceled, or
// fallback-produced computation is forgotten so the next identical query
// retries the real engine from scratch — a transient engine fault must not
// poison the cache with sequential-quality answers for the cache's
// lifetime.
type ResultCache struct {
	mu         sync.Mutex
	entries    map[resultKey]*cacheEntry
	lru        *list.List // of resultKey, front = most recent
	maxEntries int
	// memBudget bounds the estimated resident bytes of completed entries,
	// per-block indexes included; <= 0 leaves only the entry-count bound.
	memBudget int64
	bytes     int64
}

// NewResultCache returns a cache holding up to maxEntries completed results
// of at most memBudget estimated bytes in total. maxEntries <= 0 disables
// retention (single-flight coalescing still works); memBudget <= 0 leaves
// only the entry-count bound.
func NewResultCache(maxEntries int, memBudget int64) *ResultCache {
	return &ResultCache{
		entries:    map[resultKey]*cacheEntry{},
		lru:        list.New(),
		maxEntries: maxEntries,
		memBudget:  memBudget,
	}
}

// Len returns the number of completed cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the estimated resident size of completed cached results.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// resultBytes estimates the resident size of a cached result: the label
// slice dominates, the derived views are charged per element, and the
// fixed overhead covers the struct, entry, and map bookkeeping.
func resultBytes(res *queryResult) int64 {
	n := int64(512)
	n += int64(len(res.edgeComp)) * 4
	n += int64(len(res.ArticulationPoints)+len(res.Bridges)) * 4
	for _, comp := range res.Components {
		n += int64(len(comp))*4 + 24
	}
	if res.BlockCut != nil {
		n += int64(len(res.BlockCut.CutVertices)+len(res.BlockCut.LeafBlocks)) * 4
	}
	n += int64(len(res.Phases)) * 96
	if res.Trace != nil {
		n += int64(len(res.Trace.Spans)) * 128
	}
	return n
}

// Outcome classifies how a Do call was served, for stats.
type Outcome int

const (
	// OutcomeHit means the result was already cached.
	OutcomeHit Outcome = iota
	// OutcomeMiss means this call started the computation.
	OutcomeMiss
	// OutcomeCoalesced means this call joined an in-flight computation.
	OutcomeCoalesced
)

// Do returns the cached result for key, joining an in-flight computation or
// starting a new one via compute. compute receives a context that is
// canceled when every request waiting on the computation has gone away; it
// runs in its own goroutine so a caller abandoning the wait (ctx done) does
// not abort the computation for the others.
func (c *ResultCache) Do(ctx context.Context, key resultKey,
	compute func(ctx context.Context) (*queryResult, error)) (*queryResult, error, Outcome) {

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.done {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			res, err := e.res, e.err
			c.mu.Unlock()
			return res, err, OutcomeHit
		}
		e.waiters++
		c.mu.Unlock()
		return c.wait(ctx, key, e, OutcomeCoalesced)
	}

	base := context.Background()
	if ctx != nil {
		// Detach from the caller's cancellation but keep its values; the
		// computation's lifetime is governed by the waiter count, not by
		// whichever request happened to arrive first.
		base = context.WithoutCancel(ctx)
	}
	cctx, cancel := context.WithCancel(base)
	e := &cacheEntry{ready: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = e
	c.mu.Unlock()

	go func() {
		res, err := compute(cctx)
		c.mu.Lock()
		e.res, e.err = res, err
		e.done = true
		e.cancel = nil
		close(e.ready)
		cancel()
		if err != nil || res == nil || res.Degraded || c.maxEntries <= 0 || c.entries[key] != e {
			// Never cache failures or degraded (fallback) results, and don't
			// resurrect an entry every waiter abandoned (wait already
			// removed it from the map).
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		} else {
			e.elem = c.lru.PushFront(key)
			e.bytes = resultBytes(res)
			c.bytes += e.bytes
			c.enforceBudgetLocked(e)
		}
		c.mu.Unlock()
	}()

	return c.wait(ctx, key, e, OutcomeMiss)
}

// wait blocks until the entry completes or the caller's context is done,
// maintaining the entry's waiter count.
func (c *ResultCache) wait(ctx context.Context, key resultKey, e *cacheEntry, oc Outcome) (*queryResult, error, Outcome) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-e.ready:
		c.mu.Lock()
		e.waiters--
		res, err := e.res, e.err
		c.mu.Unlock()
		return res, err, oc
	case <-done:
		c.mu.Lock()
		e.waiters--
		if e.waiters == 0 && !e.done && e.cancel != nil {
			// Last interested request left: stop the engine.
			e.cancel()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err(), oc
	}
}

// AddViews replaces the result cached under key with full, a copy of res
// carrying more include views, so later hits need not derive them again.
// It does nothing once the entry no longer holds res.
func (c *ResultCache) AddViews(key resultKey, res, full *queryResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.res != res {
		return
	}
	n := resultBytes(full) - resultBytes(res)
	e.res = full
	e.bytes += n
	c.bytes += n
	c.enforceBudgetLocked(e)
}

// BlockIndex returns the per-block index of res, the result cached under
// key, building it with build on first use. Concurrent callers share one
// build; a failed build is not kept, so the next caller retries. The index
// lives on the cache entry: its bytes count against the memory budget, and
// it goes when the entry is evicted or dropped. A result the
// cache does not hold (never retained, or replaced since) gets an index
// built for this caller alone.
func (c *ResultCache) BlockIndex(ctx context.Context, key resultKey, res *queryResult,
	build func(context.Context) (*core.BlockIndex, error)) (*core.BlockIndex, error) {
	c.mu.Lock()
	for {
		e, ok := c.entries[key]
		if !ok || e.res != res {
			c.mu.Unlock()
			return build(ctx)
		}
		if e.blocks != nil {
			c.mu.Unlock()
			return e.blocks, nil
		}
		if e.building == nil {
			return c.buildBlocksLocked(ctx, key, e, build)
		}
		wait := e.building
		c.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.mu.Lock()
	}
}

// buildBlocksLocked runs build for entry e with c.mu released, then keeps
// the index on e if e is still the entry cached under key. Caller holds
// c.mu; it is released on return.
func (c *ResultCache) buildBlocksLocked(ctx context.Context, key resultKey, e *cacheEntry,
	build func(context.Context) (*core.BlockIndex, error)) (idx *core.BlockIndex, err error) {
	done := make(chan struct{})
	e.building = done
	c.mu.Unlock()
	defer func() {
		// Deferred so a panicking build still wakes the waiters.
		c.mu.Lock()
		defer c.mu.Unlock()
		e.building = nil
		close(done)
		if err == nil && idx != nil && c.entries[key] == e {
			e.blocks = idx
			n := idx.Bytes()
			e.bytes += n
			c.bytes += n
			c.enforceBudgetLocked(e)
		}
	}()
	return build(ctx)
}

// DropGraph invalidates every result computed for a graph id, across all
// generations, algorithms, and proc counts. In-flight computations are
// unhooked from the map (their waiters still get the answer they asked for
// against the snapshot they pinned, but the entry is never cached). Returns
// how many completed or in-flight entries were dropped.
func (c *ResultCache) DropGraph(fp string) int {
	c.mu.Lock()
	dropped := 0
	for key, e := range c.entries {
		if key.fp != fp {
			continue
		}
		if e.done {
			if e.elem != nil {
				c.lru.Remove(e.elem)
			}
			c.bytes -= e.bytes
		}
		delete(c.entries, key)
		dropped++
	}
	c.mu.Unlock()
	return dropped
}

// enforceBudgetLocked drops completed entries LRU-first until both the
// entry-count and byte budgets hold. keep, the entry being inserted, is
// exempt: an oversized result must survive its own insertion. Caller holds
// c.mu.
func (c *ResultCache) enforceBudgetLocked(keep *cacheEntry) {
	for c.lru.Len() > c.maxEntries || (c.memBudget > 0 && c.bytes > c.memBudget) {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(resultKey)
		e := c.entries[key]
		if e == keep {
			return
		}
		c.lru.Remove(back)
		delete(c.entries, key)
		c.bytes -= e.bytes
	}
}
