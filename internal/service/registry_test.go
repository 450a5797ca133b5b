package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicc"
	"bicc/internal/obs"
)

func mkGraph(t *testing.T, n int, edges []bicc.Edge) *bicc.Graph {
	t.Helper()
	g, err := bicc.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintContentAddressed(t *testing.T) {
	g1 := mkGraph(t, 4, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	g2 := mkGraph(t, 4, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	g3 := mkGraph(t, 4, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	g4 := mkGraph(t, 5, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}) // same edges, more vertices
	if Fingerprint(g1) != Fingerprint(g2) {
		t.Fatal("identical graphs fingerprint differently")
	}
	if Fingerprint(g1) == Fingerprint(g3) {
		t.Fatal("different edges, same fingerprint")
	}
	if Fingerprint(g1) == Fingerprint(g4) {
		t.Fatal("different vertex counts, same fingerprint")
	}
	if len(Fingerprint(g1)) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", Fingerprint(g1))
	}
}

// TestFingerprintGolden pins Fingerprint's values: they are graph ids in
// the WAL, snapshots, recovery's re-check and replication, so a change
// would orphan every stored graph.
func TestFingerprintGolden(t *testing.T) {
	// A 70000-ring with a chord from every third vertex: ids need three
	// bytes, and some chords are stored with the larger endpoint first.
	const n = 70000
	var edges []bicc.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, bicc.Edge{U: int32(i), V: int32((i + 1) % n)})
		if i%3 == 0 {
			edges = append(edges, bicc.Edge{U: int32((i + 257) % n), V: int32(i)})
		}
	}
	ring := mkGraph(t, n, edges)
	for _, tc := range []struct {
		name string
		g    *bicc.Graph
		want string
	}{
		{"testGraph", testGraph(t), "9a864f971efb1963"},
		{"ring", ring, "60cf4cbecfdea1e7"},
	} {
		if got := Fingerprint(tc.g); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRegistryAddAcquireRemove(t *testing.T) {
	r := NewRegistry(0)
	g := mkGraph(t, 3, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	fp := Fingerprint(g)
	if r.Add(fp, "a", g) {
		t.Fatal("fresh add reported existing")
	}
	if !r.Add(fp, "a", g) {
		t.Fatal("re-add not reported existing")
	}
	got, ok := r.Acquire(fp)
	if !ok || got != g {
		t.Fatal("acquire failed")
	}
	if info, _ := r.Get(fp); info.Refs != 1 {
		t.Fatalf("refs = %d, want 1", info.Refs)
	}
	// Remove while referenced hides the entry but keeps it alive for the
	// holder.
	if !r.Remove(fp) {
		t.Fatal("remove failed")
	}
	if _, ok := r.Acquire(fp); ok {
		t.Fatal("acquire succeeded on removed entry")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after remove", r.Len())
	}
	r.Release(fp)
	if r.Bytes() != 0 {
		t.Fatalf("bytes = %d after final release", r.Bytes())
	}
	if r.Remove(fp) {
		t.Fatal("second remove succeeded")
	}
}

func TestRegistryEvictionRespectsRefsAndLRU(t *testing.T) {
	mk := func(seed int32) *bicc.Graph {
		// 50 edges on 200 vertices: 24·50 + 4·201 + 64 = 2068 bytes per
		// graph under graphBytes.
		edges := make([]bicc.Edge, 50)
		for i := range edges {
			edges[i] = bicc.Edge{U: seed, V: int32(100 + i)}
		}
		g, err := bicc.NewGraph(200, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	budget := 2*graphBytes(mk(0)) + 10 // room for two graphs
	r := NewRegistry(budget)
	add := func(name string, g *bicc.Graph) string {
		fp := Fingerprint(g)
		r.Add(fp, name, g)
		return fp
	}
	fp1 := add("g1", mk(1))
	fp2 := add("g2", mk(2))
	if _, ok := r.Acquire(fp1); !ok { // pin g1
		t.Fatal("acquire g1")
	}
	time.Sleep(2 * time.Millisecond) // make lastUse ordering unambiguous
	fp3 := add("g3", mk(3))
	// g2 is the only unpinned entry: it must be the victim even though g1 is
	// older.
	if _, ok := r.Get(fp2); ok {
		t.Fatal("LRU-unpinned entry g2 survived eviction")
	}
	if _, ok := r.Get(fp1); !ok {
		t.Fatal("pinned entry g1 was evicted")
	}
	if _, ok := r.Get(fp3); !ok {
		t.Fatal("just-added entry g3 was evicted")
	}
	if r.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", r.Evicted())
	}
}

func TestResultCacheSingleFlightAndLRU(t *testing.T) {
	c := NewResultCache(2, 0)
	var runs atomic.Int64
	slow := func(ctx context.Context) (*queryResult, error) {
		runs.Add(1)
		time.Sleep(20 * time.Millisecond)
		return &queryResult{NumComponents: 1}, nil
	}
	key := resultKey{fp: "a", algo: bicc.TVOpt, procs: 2}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err, _ := c.Do(context.Background(), key, slow)
			if err != nil || res.NumComponents != 1 {
				t.Errorf("Do: %v %+v", err, res)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	// Completed entry is a hit.
	_, _, oc := c.Do(context.Background(), key, slow)
	if oc != OutcomeHit {
		t.Fatalf("outcome = %v, want hit", oc)
	}
	// Two more keys evict the oldest.
	for _, fp := range []string{"b", "c"} {
		k := resultKey{fp: fp, algo: bicc.TVOpt, procs: 2}
		if _, err, _ := c.Do(context.Background(), k, slow); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if _, _, oc := c.Do(context.Background(), key, slow); oc != OutcomeMiss {
		t.Fatalf("evicted key outcome = %v, want miss", oc)
	}
}

func TestResultCacheDoesNotCacheErrors(t *testing.T) {
	c := NewResultCache(8, 0)
	boom := errors.New("boom")
	key := resultKey{fp: "x"}
	fail := func(ctx context.Context) (*queryResult, error) { return nil, boom }
	if _, err, _ := c.Do(context.Background(), key, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var ran bool
	ok := func(ctx context.Context) (*queryResult, error) { ran = true; return &queryResult{}, nil }
	if _, err, oc := c.Do(context.Background(), key, ok); err != nil || oc != OutcomeMiss || !ran {
		t.Fatalf("retry after error: err=%v outcome=%v ran=%v", err, oc, ran)
	}
}

func TestResultCacheAbandonedComputationIsCanceled(t *testing.T) {
	c := NewResultCache(8, 0)
	computeCanceled := make(chan error, 1)
	entered := make(chan struct{})
	compute := func(cctx context.Context) (*queryResult, error) {
		close(entered)
		<-cctx.Done()
		computeCanceled <- cctx.Err()
		return nil, cctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel() // abandon immediately-ish
	_, err, _ := c.Do(ctx, resultKey{fp: "y"}, compute)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	<-entered
	select {
	case err := <-computeCanceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("compute ctx err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("computation context never canceled after last waiter left")
	}
}

func TestAdmissionBounds(t *testing.T) {
	a := NewAdmission(2, 1)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Inflight() != 2 {
		t.Fatalf("inflight = %d", a.Inflight())
	}
	// Third acquire queues; fourth is rejected.
	acquired := make(chan func(), 1)
	go func() {
		r, err := a.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		acquired <- r
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", a.QueueDepth())
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	r1() // frees a slot: the queued acquire proceeds
	r3 := <-acquired
	r3()
	r3() // double release must be a no-op
	r2()
	if a.Inflight() != 0 || a.QueueDepth() != 0 {
		t.Fatalf("inflight=%d queue=%d after release", a.Inflight(), a.QueueDepth())
	}
}

func TestAdmissionAcquireHonorsContext(t *testing.T) {
	a := NewAdmission(1, 4)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if a.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after timed-out waiter", a.QueueDepth())
	}
}

// TestHistogram checks the request-latency histogram as /metrics renders
// it: every sample counted, and each in its power-of-two bucket.
func TestHistogram(t *testing.T) {
	s := New(Config{})
	h := s.stats.perAlgorithm["sequential"]
	for _, d := range []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, 5 * time.Millisecond, time.Second,
	} {
		h.Observe(d)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, s.metrics); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`bicc_request_seconds_count{algorithm="sequential"} 6`,
		`bicc_request_seconds_bucket{algorithm="sequential",le="1e-06"} 1`,
		`bicc_request_seconds_bucket{algorithm="sequential",le="0.008192"} 5`,
		// The 1 s sample lands in the bucket up to 2^20 µs.
		`bicc_request_seconds_bucket{algorithm="sequential",le="0.524288"} 5`,
		`bicc_request_seconds_bucket{algorithm="sequential",le="1.048576"} 6`,
	} {
		if !strings.Contains(buf.String(), series+"\n") {
			t.Errorf("exposition missing %q", series)
		}
	}
}
