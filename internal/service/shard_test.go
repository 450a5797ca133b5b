package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bicc"
	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/faults"
	"bicc/internal/gen"
)

// getJSON fetches url and decodes the body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return resp.StatusCode
}

// blockIndexes counts the cache entries holding a per-block index.
func blockIndexes(c *ResultCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.blocks != nil {
			n++
		}
	}
	return n
}

// checkBlockAnswers asserts that every per-block endpoint on ts answers, for
// every vertex and block of g, byte-for-byte what the monolithic
// decomposition by algo implies. Answers are decoded and re-encoded, which
// keeps a null list apart from an empty one, and compared as JSON with the
// response the decomposition implies. qs carries graph, algorithm and
// procs; engine labels do not depend on procs, so the reference runs at
// procs=2.
func checkBlockAnswers(t *testing.T, ts *httptest.Server, qs string, g *bicc.Graph, algo bicc.Algorithm) {
	t.Helper()
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want any) {
		t.Helper()
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s:\n served   %s\n monolith %s", what, a, b)
		}
	}
	tree := res.BlockCutTree()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		var vb vertexBlocksResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/blocks%s", v, qs), &vb); code != 200 {
			t.Fatalf("vertex %d blocks: status %d", v, code)
		}
		if vb.Degraded {
			t.Fatalf("vertex %d served degraded: %+v", v, vb)
		}
		want := tree.BlocksOfVertex(v)
		same(fmt.Sprintf("vertex %d blocks", v), vb, vertexBlocksResponse{
			shardMeta: vb.shardMeta, Vertex: v, Blocks: want, IsCut: len(want) >= 2})
		var ar articulationResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/articulation%s", v, qs), &ar); code != 200 {
			t.Fatalf("vertex %d articulation: status %d", v, code)
		}
		same(fmt.Sprintf("vertex %d articulation", v), ar, articulationResponse{
			shardMeta: ar.shardMeta, Vertex: v, Articulation: len(want) >= 2, NumBlocksContaining: len(want)})
	}
	for b := int32(0); b < int32(res.NumComponents); b++ {
		var br blockResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d%s&include=subgraph", b, qs), &br); code != 200 {
			t.Fatalf("block %d: status %d", b, code)
		}
		sub, vm, em := res.ComponentSubgraph(b)
		wantSub := &subgraphJSON{N: int32(sub.NumVertices()), Edges: make([][2]int32, sub.NumEdges()), VertexMap: vm, EdgeMap: em}
		for i, e := range sub.Edges() {
			wantSub.Edges[i] = [2]int32{e.U, e.V}
		}
		same(fmt.Sprintf("block %d", b), br, blockResponse{
			shardMeta:   br.shardMeta,
			Block:       b,
			NumBlocks:   res.NumComponents,
			NumVertices: len(tree.VerticesOfBlock(b)),
			NumEdges:    sub.NumEdges(),
			Vertices:    tree.VerticesOfBlock(b),
			CutVertices: tree.CutsOfBlock(b),
			Subgraph:    wantSub,
		})
	}
	// Out-of-range queries.
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d%s", res.NumComponents, qs), nil); code != http.StatusNotFound {
		t.Fatalf("out-of-range block: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/blocks%s", g.NumVertices(), qs), nil); code != http.StatusNotFound {
		t.Fatalf("out-of-range vertex: status %d, want 404", code)
	}
}

// TestShardHTTPDifferential is the service-level differential harness: the
// per-block endpoints must answer byte-for-byte what the monolithic
// decomposition implies, for every vertex and block, across algorithms —
// on a fresh entry, on an entry evicted and recomputed, and on a mutated
// graph served from maintained labels.
func TestShardHTTPDifferential(t *testing.T) {
	el := gen.RandomConnected(120, 300, 11)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	// The mutation leg inserts one edge the graph does not have yet.
	has := map[[2]int32]bool{}
	for _, e := range el.Edges {
		has[[2]int32{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	ins := bicc.Edge{U: 0, V: 1}
	for has[[2]int32{ins.U, ins.V}] {
		ins.V++
	}
	mutated, err := bicc.NewGraph(g.NumVertices(), append(append([]bicc.Edge(nil), g.Edges()...), ins))
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	fp := uploadGraph(t, ts, g, "").Fingerprint
	// A one-byte budget evicts every entry but the newest.
	es, ets := newTestServer(t, Config{MemBudget: 1})
	uploadGraph(t, ets, g, "")
	_, mts := newTestServer(t, Config{})
	uploadGraph(t, mts, g, "")
	mustMutate(t, mts, fp, []mutationDelta{{Op: "insert", U: ins.U, V: ins.V}})

	for _, algoName := range engine.Names() {
		t.Run(algoName, func(t *testing.T) {
			algo, err := parseAlgorithm(algoName)
			if err != nil {
				t.Fatal(err)
			}
			qs := fmt.Sprintf("?graph=%s&algorithm=%s&procs=2", fp, algoName)
			checkBlockAnswers(t, ts, qs, g, algo)

			// Eviction leg: build the entry's index, evict the entry by
			// inserting another key, then query it back.
			if code := getJSON(t, ets.URL+"/v1/vertex/0/blocks"+qs, nil); code != http.StatusOK {
				t.Fatalf("eviction leg warm-up: status %d", code)
			}
			if r, body := postBCC(t, ets, bccRequest{Graph: fp, Algorithm: algoName, Procs: 1}); r.StatusCode != http.StatusOK {
				t.Fatalf("eviction leg eviction query: status %d: %s", r.StatusCode, body)
			}
			computations := es.stats.Computations.Load()
			checkBlockAnswers(t, ets, qs, g, algo)
			if es.stats.Computations.Load() != computations+1 {
				t.Fatal("eviction leg: the evicted entry was not recomputed exactly once")
			}

			checkBlockAnswers(t, mts, qs, mutated, algo)
		})
	}
}

// TestShardQueryReusesCachedDecomposition checks that a per-block query
// after /v1/bcc on the same graph, engine and procs reads the cached
// decomposition instead of running the engine again, and that /v1/bcc
// never builds a per-block index.
func TestShardQueryReusesCachedDecomposition(t *testing.T) {
	for _, tc := range []struct {
		algo  string
		procs int
	}{
		{"tv-opt", 2},
		{"auto", 0},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			up := uploadGraph(t, ts, testGraph(t), "")
			for i := 0; i < 2; i++ {
				if r, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: tc.algo, Procs: tc.procs}); r.StatusCode != http.StatusOK {
					t.Fatalf("bcc: status %d: %s", r.StatusCode, body)
				}
			}
			if n := s.stats.ShardBuilds.Load(); n != 0 {
				t.Fatalf("/v1/bcc built %d per-block indexes", n)
			}
			computations := s.stats.Computations.Load()
			qs := fmt.Sprintf("?graph=%s&algorithm=%s&procs=%d", up.Fingerprint, tc.algo, tc.procs)
			var vb vertexBlocksResponse
			if code := getJSON(t, ts.URL+"/v1/vertex/2/blocks"+qs, &vb); code != http.StatusOK {
				t.Fatalf("vertex blocks: status %d", code)
			}
			if !vb.IsCut || len(vb.Blocks) != 2 {
				t.Fatalf("vertex 2: %+v, want a cut vertex in 2 blocks", vb)
			}
			if got := s.stats.Computations.Load(); got != computations {
				t.Fatalf("per-block query after /v1/bcc ran the engine: computations %d -> %d", computations, got)
			}
		})
	}
}

// TestShardIndexBuiltOncePerEntry sends 50 concurrent per-block queries
// against one cache entry: the index is built exactly once, and its bytes
// are charged to the result cache.
func TestShardIndexBuiltOncePerEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{MemBudget: 1 << 30})
	el := gen.Caterpillar(16, 3)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, ts, g, "")
	if r, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "sequential", Procs: 1}); r.StatusCode != http.StatusOK {
		t.Fatalf("bcc: status %d: %s", r.StatusCode, body)
	}
	before := s.cache.Bytes()

	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewBlockIndex(int32(g.NumVertices()), g.Edges(), res.EdgeComponent, res.NumComponents)

	qs := "?graph=" + up.Fingerprint + "&algorithm=sequential&procs=1"
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := []string{"/v1/block/%d", "/v1/vertex/%d/blocks", "/v1/vertex/%d/articulation"}[i%3]
			if code := getJSON(t, ts.URL+fmt.Sprintf(path, i%16)+qs, nil); code != http.StatusOK {
				t.Errorf("query %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()

	if n := s.stats.ShardBuilds.Load(); n != 1 {
		t.Fatalf("bicc_shard_builds_total = %d after 50 queries on one entry, want 1", n)
	}
	if got := s.cache.Bytes() - before; got != want.Bytes() {
		t.Fatalf("result cache grew by %d bytes, want the index's %d", got, want.Bytes())
	}
	if n := s.stats.ShardQueries.Load(); n != 50 {
		t.Fatalf("bicc_shard_queries_total = %d, want 50", n)
	}
}

// TestShardThenBCCKeepsDerivedViews covers a per-block query followed by
// /v1/bcc with an include view: the per-block query caches a view-less
// entry, the first /v1/bcc hit derives the view, and the entry keeps it
// (and its per-block index) for later hits.
func TestShardThenBCCKeepsDerivedViews(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	if code := getJSON(t, ts.URL+"/v1/vertex/2/blocks?graph="+up.Fingerprint+"&algorithm=tv-opt&procs=2", nil); code != http.StatusOK {
		t.Fatalf("vertex blocks: status %d", code)
	}
	before := s.cache.Bytes()
	req := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt", Procs: 2, Include: []string{"blockcut"}}
	var bodies []string
	for i := 0; i < 2; i++ {
		r, body := postBCC(t, ts, req)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("bcc: status %d: %s", r.StatusCode, body)
		}
		var out bccResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Cached || out.BlockCut == nil || out.BlockCut.NumBlocks != 3 {
			t.Fatalf("bcc %d: %s", i, body)
		}
		out.ElapsedNs = 0
		b, _ := json.Marshal(out)
		bodies = append(bodies, string(b))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("hits disagree:\n%s\n%s", bodies[0], bodies[1])
	}
	s.cache.mu.Lock()
	e := s.cache.entries[resultKey{fp: up.Fingerprint, algo: bicc.TVOpt, procs: 2}]
	kept := e != nil && e.res.BlockCut != nil && e.blocks != nil
	s.cache.mu.Unlock()
	if !kept || s.cache.Bytes() <= before {
		t.Fatalf("derived view not kept on the entry (kept=%v, bytes %d -> %d)", kept, before, s.cache.Bytes())
	}
	if n := s.stats.ShardBuilds.Load(); n != 1 {
		t.Fatalf("index built %d times, want 1", n)
	}
}

// TestShardBuildFaultFailsOnlyPerBlockQueries seeds a persistent panic at
// shard.build: per-block queries answer 500 and keep no index, while
// /v1/bcc on the same graph still answers. Clearing the fault heals the
// per-block path on the next query.
func TestShardBuildFaultFailsOnlyPerBlockQueries(t *testing.T) {
	defer faults.Deactivate()
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	qs := "?graph=" + up.Fingerprint

	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, core.SiteBlockIndex)}})
	for _, path := range []string{"/v1/block/0", "/v1/vertex/2/blocks", "/v1/vertex/2/articulation"} {
		if code := getJSON(t, ts.URL+path+qs, nil); code != http.StatusInternalServerError {
			t.Fatalf("faulted %s: status %d, want 500", path, code)
		}
	}
	if r, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint}); r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/bcc under a shard.build fault: status %d: %s", r.StatusCode, body)
	}
	if n := blockIndexes(s.cache); n != 0 {
		t.Fatalf("faulted builds kept %d indexes", n)
	}
	if s.stats.ShardBuilds.Load() != 0 || s.stats.ShardBuildFailures.Load() != 3 {
		t.Fatalf("builds %d, failures %d; want 0 and 3",
			s.stats.ShardBuilds.Load(), s.stats.ShardBuildFailures.Load())
	}

	faults.Deactivate()
	var healed blockResponse
	if code := getJSON(t, ts.URL+"/v1/block/0"+qs, &healed); code != http.StatusOK {
		t.Fatalf("healed block query: status %d", code)
	}
	if healed.Degraded || healed.NumBlocks != 3 || len(healed.Vertices) == 0 {
		t.Fatalf("healed answer: %+v", healed)
	}
	if n := blockIndexes(s.cache); n != 1 {
		t.Fatalf("healed build not kept: %d indexes", n)
	}
}

// TestShardDegradedResultAnswersUncached checks a per-block query whose
// decomposition came from the sequential fallback: it answers, marked
// degraded, and neither the result nor its index is kept.
func TestShardDegradedResultAnswersUncached(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			res, err := bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: bicc.Sequential})
			if err != nil {
				return nil, err
			}
			res.Degraded = true
			res.DegradedCause = errors.New("synthetic fault")
			return res, nil
		},
	})
	up := uploadGraph(t, ts, testGraph(t), "")
	for i := 1; i <= 2; i++ {
		var vb vertexBlocksResponse
		if code := getJSON(t, ts.URL+"/v1/vertex/2/blocks?graph="+up.Fingerprint, &vb); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if !vb.Degraded || vb.DegradedCause == "" || !vb.IsCut {
			t.Fatalf("query %d: %+v, want a degraded cut-vertex answer", i, vb)
		}
		if n := blockIndexes(s.cache); n != 0 {
			t.Fatalf("query %d: degraded result kept %d indexes", i, n)
		}
		if got := s.stats.Computations.Load(); got != int64(i) {
			t.Fatalf("query %d: %d computations, want %d (degraded results are not cached)", i, got, i)
		}
	}
}

// TestShardEvictionRebuildsIndex runs per-block queries under a memory
// budget that holds exactly two results: an index's bytes push the other
// entry out, an evicted entry loses its index, and the next per-block
// query recomputes the entry and builds its index anew — with every answer
// unchanged.
func TestShardEvictionRebuildsIndex(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	el := gen.Caterpillar(16, 3) // one block per edge: a sizable index
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, ts, g, "")
	for _, procs := range []int{1, 2} {
		if r, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "sequential", Procs: procs}); r.StatusCode != http.StatusOK {
			t.Fatalf("bcc: status %d: %s", r.StatusCode, body)
		}
	}
	s.cache.mu.Lock()
	s.cache.memBudget = s.cache.bytes
	s.cache.mu.Unlock()

	qs := func(procs int) string {
		return fmt.Sprintf("?graph=%s&algorithm=sequential&procs=%d", up.Fingerprint, procs)
	}
	step := func(procs int, builds, computations int64) {
		t.Helper()
		checkBlockAnswers(t, ts, qs(procs), g, bicc.Sequential)
		if n := s.stats.ShardBuilds.Load(); n != builds {
			t.Fatalf("procs=%d: %d index builds, want %d", procs, n, builds)
		}
		if n, cached := s.stats.Computations.Load(), s.cache.Len(); n != computations || cached != 1 {
			t.Fatalf("procs=%d: %d computations, %d cached results; want %d and 1",
				procs, n, cached, computations)
		}
	}
	step(2, 1, 2) // the procs=2 index pushes the procs=1 entry out
	step(1, 2, 3) // recomputed: procs=2 goes out, procs=1 rebuilds its index
	step(2, 3, 4) // procs=2 lost its index on eviction and rebuilds it
}

// TestShardDeleteGraphDropsShardState proves DELETE /v1/graphs/{fp} removes
// every algorithm/procs variant of the graph's per-block indexes.
func TestShardDeleteGraphDropsShardState(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	qs := "?graph=" + up.Fingerprint
	for _, algo := range []string{"sequential", "tv-opt"} {
		if code := getJSON(t, ts.URL+"/v1/block/0"+qs+"&algorithm="+algo, nil); code != 200 {
			t.Fatalf("%s: status %d", algo, code)
		}
	}
	if n := blockIndexes(s.cache); n != 2 {
		t.Fatalf("indexes=%d, want 2", n)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+up.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if n := blockIndexes(s.cache); n != 0 || s.cache.Bytes() != 0 {
		t.Fatalf("per-block state survived graph deletion: %d indexes, %d bytes", n, s.cache.Bytes())
	}
	if code := getJSON(t, ts.URL+"/v1/block/0"+qs, nil); code != http.StatusNotFound {
		t.Fatalf("query after delete: status %d, want 404", code)
	}
}

// TestShardConcurrentQueriesDuringBuildAndEviction hammers the endpoints
// concurrently across two engines while builds, evictions and
// recomputations are in flight; run under -race this is the service-level
// data-race net for the per-block path.
func TestShardConcurrentQueriesDuringBuildAndEviction(t *testing.T) {
	// A queue lets the two engines' first computations wait for the worker.
	_, ts := newTestServer(t, Config{Queue: -1, MemBudget: 3_000})
	el := gen.Caterpillar(12, 2)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, ts, g, "")
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Auto})
	if err != nil {
		t.Fatal(err)
	}
	nb := res.NumComponents

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			algo := []string{"sequential", "tv-opt"}[w%2]
			for i := 0; i < 30; i++ {
				var path string
				switch i % 3 {
				case 0:
					path = fmt.Sprintf("/v1/block/%d", (w+i)%nb)
				case 1:
					path = fmt.Sprintf("/v1/vertex/%d/blocks", (w*i)%g.NumVertices())
				case 2:
					path = fmt.Sprintf("/v1/vertex/%d/articulation", i%g.NumVertices())
				}
				if code := getJSON(t, ts.URL+path+"?graph="+up.Fingerprint+"&algorithm="+algo, nil); code != 200 {
					t.Errorf("%s: status %d", path, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardClientCancelLeavesNoPartialState aborts a per-block query
// through the client's deadline on a graph big enough to still be
// computing, then proves no index was kept and the next (patient) query
// succeeds.
func TestShardClientCancelLeavesNoPartialState(t *testing.T) {
	// The patient query may queue behind the abandoned run's worker.
	s, ts := newTestServer(t, Config{Queue: -1})
	up := uploadGraph(t, ts, bigGraph(), "")

	code := getJSON(t, ts.URL+"/v1/vertex/0/blocks?graph="+up.Fingerprint+"&timeout_ms=1", nil)
	if code != http.StatusServiceUnavailable {
		// A fast machine may finish inside 1ms; only the no-partial-state
		// invariant below is unconditional.
		t.Logf("1ms query returned %d", code)
	}
	if code != http.StatusOK && (blockIndexes(s.cache) != 0 || s.stats.ShardBuilds.Load() != 0) {
		t.Fatalf("canceled query left an index: %d kept, %d built", blockIndexes(s.cache), s.stats.ShardBuilds.Load())
	}

	var vb vertexBlocksResponse
	if code := getJSON(t, ts.URL+"/v1/vertex/0/blocks?graph="+up.Fingerprint, &vb); code != 200 {
		t.Fatalf("patient query: status %d", code)
	}
	if vb.Degraded {
		t.Fatalf("patient query after cancel: %+v", vb)
	}
}

// TestShardMetricsExposed checks the per-block series New registers, and
// that the shard families of the retired second cache are gone.
func TestShardMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	if code := getJSON(t, ts.URL+"/v1/block/0?graph="+up.Fingerprint, nil); code != 200 {
		t.Fatalf("block query: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		"bicc_shard_queries_total 1",
		"bicc_shard_builds_total 1",
		"bicc_shard_build_failures_total 0",
		"bicc_shard_request_seconds_count 1",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("metrics missing %q", series)
		}
	}
	for _, gone := range []string{"bicc_shard_sets", "bicc_shard_bytes", "bicc_shard_spill_", "bicc_shard_fallbacks_total"} {
		if strings.Contains(string(body), gone) {
			t.Fatalf("metrics still expose %q", gone)
		}
	}
}

// TestShardTimeoutParam checks timeout_ms on the per-block endpoints: a
// non-integer answers 400, as a malformed procs does, while a value <= 0
// means the default timeout, as on /v1/bcc.
func TestShardTimeoutParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	qs := "/v1/vertex/2/blocks?graph=" + up.Fingerprint + "&timeout_ms="
	for _, bad := range []string{"abc", "1.5", "99999999999999999999"} {
		if code := getJSON(t, ts.URL+qs+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s: status %d, want 400", bad, code)
		}
	}
	for _, dflt := range []string{"0", "-5"} {
		var vb vertexBlocksResponse
		if code := getJSON(t, ts.URL+qs+dflt, &vb); code != http.StatusOK || !vb.IsCut {
			t.Fatalf("timeout_ms=%s: status %d, %+v", dflt, code, vb)
		}
	}
}

// TestIncludeViewsDerivedOnCacheHit pins that the include views a query
// asks for never depend on which query populated the cache: the result
// cache is keyed without the include set, so a hit on an entry a per-block
// query created (it asks for no views) must still serve the articulation,
// bridges, components and blockcut views, derived on the fly from the
// entry's edge labeling.
func TestIncludeViewsDerivedOnCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	up := uploadGraph(t, ts, testGraph(t), "")
	full := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt",
		Include: []string{"articulation", "bridges", "components", "blockcut"}}
	ask := func(req bccRequest) bccResponse {
		t.Helper()
		resp, data := postBCC(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := ask(full) // miss: views computed alongside the engine run
	if want.Cached || len(want.ArticulationPoints) == 0 || want.BlockCut == nil {
		t.Fatalf("baseline response unusable: %+v", want)
	}
	assertViews := func(got bccResponse, when string) {
		t.Helper()
		if !got.Cached {
			t.Fatalf("%s: not served from the cache", when)
		}
		if fmt.Sprint(got.ArticulationPoints) != fmt.Sprint(want.ArticulationPoints) ||
			fmt.Sprint(got.Bridges) != fmt.Sprint(want.Bridges) ||
			fmt.Sprint(got.Components) != fmt.Sprint(want.Components) ||
			got.BlockCut == nil || fmt.Sprint(*got.BlockCut) != fmt.Sprint(*want.BlockCut) {
			t.Fatalf("%s: derived views differ from computed ones: %+v vs %+v", when, got, want)
		}
	}

	// Hit on the entry the include-ful miss created.
	assertViews(ask(full), "plain cache hit")

	// Replace the entry with one a per-block query creates: evict it by
	// querying another graph, then ask a per-block question about the first.
	g2, _ := bicc.RandomConnectedGraph(40, 80, 9)
	up2 := uploadGraph(t, ts, g2, "")
	ask(bccRequest{Graph: up2.Fingerprint, Algorithm: "tv-opt"})
	if code := getJSON(t, ts.URL+"/v1/vertex/2/blocks?graph="+up.Fingerprint+"&algorithm=tv-opt", nil); code != http.StatusOK {
		t.Fatalf("vertex blocks: status %d", code)
	}
	if n := s.stats.Computations.Load(); n != 3 {
		t.Fatalf("%d computations, want 3: the per-block query must recompute the evicted entry", n)
	}
	assertViews(ask(full), "hit on the per-block query's entry")
}
