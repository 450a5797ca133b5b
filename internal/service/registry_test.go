package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
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
	r := NewRegistry(0, nil)
	g := mkGraph(t, 3, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	fp := Fingerprint(g)
	if info := r.Add(fp, "a", g); info.Fingerprint != fp || info.Name != "a" || info.Bytes != graphBytes(g) {
		t.Fatalf("add returned %+v", info)
	}
	if info := r.Add(fp, "b", g); info.Name != "b" || r.Len() != 1 || r.Bytes() != graphBytes(g) {
		t.Fatalf("re-add returned %+v with Len %d, bytes %d: want one entry, renamed", info, r.Len(), r.Bytes())
	}
	pin, ok := r.Acquire(fp)
	if !ok || pin.G != g || pin.Info.Refs != 1 {
		t.Fatal("acquire failed")
	}
	if info, _ := r.Get(fp); info.Refs != 1 {
		t.Fatalf("refs = %d, want 1", info.Refs)
	}
	// Remove while referenced hides the entry but keeps it charged for the
	// holder.
	r.Remove(fp)
	if _, ok := r.Acquire(fp); ok {
		t.Fatal("acquire succeeded on removed entry")
	}
	if r.Len() != 0 || r.Bytes() != graphBytes(g) {
		t.Fatalf("after remove: Len = %d, bytes = %d, want 0 and %d", r.Len(), r.Bytes(), graphBytes(g))
	}
	pin.Release()
	if r.Bytes() != 0 {
		t.Fatalf("bytes = %d after final release", r.Bytes())
	}
	r.Remove(fp)
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("a second remove left Len %d, bytes %d", r.Len(), r.Bytes())
	}

	// A stale pin: the graph is deleted and the same content uploaded
	// again while a query holds the first incarnation. It is no longer
	// registered, and its release leaves the new incarnation alone: one
	// graph charged, the new pin still counted, generation 0.
	r.Add(fp, "a", g)
	stale, _ := r.Acquire(fp)
	r.Remove(fp)
	r.Add(fp, "a", g)
	fresh, _ := r.Acquire(fp)
	if stale.Registered() || !fresh.Registered() {
		t.Fatalf("registered: stale pin %v, current pin %v", stale.Registered(), fresh.Registered())
	}
	stale.Release()
	if info, _ := r.Get(fp); info.Refs != 1 || info.Generation != 0 || r.Bytes() != graphBytes(g) {
		t.Fatalf("after the stale release: refs %d, gen %d, bytes %d, want 1, 0, %d",
			info.Refs, info.Generation, r.Bytes(), graphBytes(g))
	}

	// Replace swaps graph and labels in together; Put swaps in a graph
	// with no labels.
	g2 := mkGraph(t, 3, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	labels := []int32{0, 0, 0}
	fresh.Replace(g2, 1, Fingerprint(g2), labels)
	fresh.Release()
	if info, _ := r.Get(fp); info.Refs != 0 || info.Generation != 1 || r.Bytes() != graphBytes(g2) || r.Len() != 1 {
		t.Fatalf("after replace: refs %d, gen %d, bytes %d, Len %d, want 0, 1, %d, 1",
			info.Refs, info.Generation, r.Bytes(), r.Len(), graphBytes(g2))
	}
	if p, _ := r.Acquire(fp); p.G != g2 || &p.Labels[0] != &labels[0] {
		t.Fatal("a pin after Replace does not carry the new graph and its labels")
	} else {
		p.Release()
	}
	r.Put(fp, "a", g, 0, "")
	if p, _ := r.Acquire(fp); p.G != g || p.Labels != nil || p.Info.Generation != 0 {
		t.Fatalf("a pin after Put: graph swapped %v, labels %v, gen %d", p.G == g, p.Labels, p.Info.Generation)
	} else {
		p.Release()
	}
}

// TestRegistryChurnKeepsCharges races pins, removals, re-adds and
// evictions of four graphs under a two-graph budget from 8 goroutines.
// Once every pin is released, the registry charges exactly the entries it
// lists.
func TestRegistryChurnKeepsCharges(t *testing.T) {
	var graphs []*bicc.Graph
	var fps []string
	for i := 0; i < 4; i++ {
		g := mkGraph(t, 8, []bicc.Edge{{U: 0, V: int32(i + 1)}, {U: int32(i + 1), V: 7}})
		graphs, fps = append(graphs, g), append(fps, Fingerprint(g))
	}
	r := NewRegistry(2*graphBytes(graphs[0]), nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*Pin
			for op := 0; op < 3000; op++ {
				i := rng.Intn(len(graphs))
				switch rng.Intn(4) {
				case 0:
					r.Add(fps[i], "", graphs[i])
				case 1:
					if p, ok := r.Acquire(fps[i]); ok {
						held = append(held, p)
					}
				case 2:
					r.Remove(fps[i])
				}
				if len(held) > 2 || (len(held) > 0 && rng.Intn(4) == 0) {
					held[0].Release()
					held = held[1:]
				}
			}
			for _, p := range held {
				p.Release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	var sum int64
	list := r.List()
	for _, info := range list {
		if info.Refs != 0 {
			t.Errorf("%s: refs %d after every release", info.Fingerprint, info.Refs)
		}
		sum += info.Bytes
	}
	if r.Bytes() != sum || r.Len() != len(list) {
		t.Fatalf("charged %d bytes and %d entries, the listed entries hold %d and %d", r.Bytes(), r.Len(), sum, len(list))
	}
	if r.Evicted() == 0 {
		t.Fatal("churn never evicted")
	}
}

// TestRegistryChargesTheLocalView: a graph is charged its edge list and
// CSR when added; once a query builds its local view, releasing it charges
// the view (a second edge list and its CSR) and no CSR of the graph's own.
func TestRegistryChargesTheLocalView(t *testing.T) {
	const side = 256
	n, m := side*side, 2*side*side
	edges := make([]bicc.Edge, 0, m)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := perm[r*side+c]
			edges = append(edges,
				bicc.Edge{U: int32(v), V: int32(perm[r*side+(c+1)%side])},
				bicc.Edge{U: int32(v), V: int32(perm[((r+1)%side)*side+c])})
		}
	}
	g := mkGraph(t, n, edges)
	reg := NewRegistry(0, nil)
	fp := Fingerprint(g)
	reg.Add(fp, "torus", g)
	csr := int64(16*m + 4*(n+1))
	if info, _ := reg.Get(fp); info.Bytes != int64(8*m+64)+csr || reg.Bytes() != info.Bytes {
		t.Fatalf("added: charged %d (registry %d), want %d", info.Bytes, reg.Bytes(), int64(8*m+64)+csr)
	}
	pin, _ := reg.Acquire(fp)
	if _, err := bicc.BiconnectedComponents(pin.G, &bicc.Options{Algorithm: bicc.TVOpt, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	pin.Release()
	if info, _ := reg.Get(fp); info.Bytes != int64(16*m+128)+csr || reg.Bytes() != info.Bytes {
		t.Fatalf("after the first query: charged %d (registry %d), want %d", info.Bytes, reg.Bytes(), int64(16*m+128)+csr)
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
	r := NewRegistry(budget, nil)
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
