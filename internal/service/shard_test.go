package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bicc"
	"bicc/internal/engine"
	"bicc/internal/faults"
	"bicc/internal/gen"
	"bicc/internal/shard"
)

// newShardServer builds a test server with sharding enabled.
func newShardServer(t *testing.T, cfg Config, scfg ShardingConfig) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	if err := s.EnableSharding(scfg); err != nil {
		t.Fatal(err)
	}
	return s, ts
}

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

func TestShardEndpointsDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	for _, path := range []string{
		"/v1/block/0?graph=" + up.Fingerprint,
		"/v1/vertex/0/blocks?graph=" + up.Fingerprint,
		"/v1/vertex/0/articulation?graph=" + up.Fingerprint,
	} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, code)
		}
	}
	// /statsz stays byte-compatible: no sharding key at all.
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "sharding") {
		t.Fatalf("statsz leaks sharding when disabled: %s", b)
	}
}

// TestShardHTTPDifferential is the service-level differential harness: the
// per-block endpoints must answer byte-for-byte what the monolithic
// decomposition implies, for every vertex and block, across algorithms.
func TestShardHTTPDifferential(t *testing.T) {
	_, ts := newShardServer(t, Config{}, ShardingConfig{})
	el := gen.RandomConnected(120, 300, 11)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, ts, g, "")

	for _, algoName := range engine.Names() {
		t.Run(algoName, func(t *testing.T) {
			algo, err := parseAlgorithm(algoName)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
			if err != nil {
				t.Fatal(err)
			}
			tree := res.BlockCutTree()
			qs := fmt.Sprintf("?graph=%s&algorithm=%s&procs=2", up.Fingerprint, algoName)

			for v := 0; v < g.NumVertices(); v++ {
				var vb vertexBlocksResponse
				if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/blocks%s", v, qs), &vb); code != 200 {
					t.Fatalf("vertex %d blocks: status %d", v, code)
				}
				if !vb.Sharded || vb.Degraded {
					t.Fatalf("vertex %d served sharded=%v degraded=%v", v, vb.Sharded, vb.Degraded)
				}
				want := tree.BlocksOfVertex(int32(v))
				if fmt.Sprint(vb.Blocks) != fmt.Sprint(want) || vb.IsCut != (len(want) >= 2) {
					t.Fatalf("vertex %d: blocks %v cut=%v, monolith %v", v, vb.Blocks, vb.IsCut, want)
				}
				var ar articulationResponse
				if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/articulation%s", v, qs), &ar); code != 200 {
					t.Fatalf("vertex %d articulation: status %d", v, code)
				}
				if ar.Articulation != (len(want) >= 2) || ar.NumBlocksContaining != len(want) {
					t.Fatalf("vertex %d: articulation %+v, monolith %d blocks", v, ar, len(want))
				}
			}

			for b := 0; b < res.NumComponents; b++ {
				var br blockResponse
				if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d%s&include=subgraph", b, qs), &br); code != 200 {
					t.Fatalf("block %d: status %d", b, code)
				}
				if !br.Sharded || br.NumBlocks != res.NumComponents {
					t.Fatalf("block %d: sharded=%v numBlocks=%d", b, br.Sharded, br.NumBlocks)
				}
				sub, vm, em := res.ComponentSubgraph(int32(b))
				if fmt.Sprint(br.Vertices) != fmt.Sprint(tree.VerticesOfBlock(int32(b))) ||
					fmt.Sprint(br.CutVertices) != fmt.Sprint(tree.CutsOfBlock(int32(b))) {
					t.Fatalf("block %d: vertices/cuts disagree with monolith", b)
				}
				if br.Subgraph == nil || br.Subgraph.N != int32(sub.NumVertices()) ||
					fmt.Sprint(br.Subgraph.VertexMap) != fmt.Sprint(vm) ||
					fmt.Sprint(br.Subgraph.EdgeMap) != fmt.Sprint(em) ||
					len(br.Subgraph.Edges) != sub.NumEdges() {
					t.Fatalf("block %d: subgraph disagrees with monolith", b)
				}
			}

			// Out-of-range queries.
			if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d%s", res.NumComponents, qs), nil); code != http.StatusNotFound {
				t.Fatalf("out-of-range block: status %d, want 404", code)
			}
			if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/blocks%s", g.NumVertices(), qs), nil); code != http.StatusNotFound {
				t.Fatalf("out-of-range vertex: status %d, want 404", code)
			}
		})
	}
}

// TestShardBuildFaultFallsBackToMonolith seeds a persistent fault at
// shard.build: every per-block query must still answer — served by the
// monolithic path and marked degraded — and nothing may be installed as
// shard state. Clearing the fault heals the shard path on the next query.
func TestShardBuildFaultFallsBackToMonolith(t *testing.T) {
	defer faults.Deactivate()
	s, ts := newShardServer(t, Config{}, ShardingConfig{})
	up := uploadGraph(t, ts, testGraph(t), "")
	qs := "?graph=" + up.Fingerprint

	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, shard.SiteBuild)}})

	var br blockResponse
	if code := getJSON(t, ts.URL+"/v1/block/0"+qs, &br); code != 200 {
		t.Fatalf("faulted block query: status %d", code)
	}
	if br.Sharded || !br.Degraded || br.DegradedCause == "" {
		t.Fatalf("faulted query served sharded=%v degraded=%v cause=%q", br.Sharded, br.Degraded, br.DegradedCause)
	}
	if br.NumBlocks != 3 || len(br.Vertices) == 0 {
		t.Fatalf("degraded answer wrong: %+v", br)
	}
	var vb vertexBlocksResponse
	if code := getJSON(t, ts.URL+"/v1/vertex/2/blocks"+qs, &vb); code != 200 {
		t.Fatalf("faulted vertex query: status %d", code)
	}
	if vb.Sharded || !vb.Degraded || !vb.IsCut {
		t.Fatalf("faulted vertex answer: %+v", vb)
	}

	snap := s.Snapshot()
	if snap.Sharding == nil {
		t.Fatal("sharding section missing")
	}
	if snap.Sharding.Sets != 0 || snap.Sharding.ResidentShards != 0 {
		t.Fatalf("faulted builds installed shard state: %+v", snap.Sharding)
	}
	if snap.Sharding.BuildFailures == 0 || snap.Sharding.Fallbacks == 0 {
		t.Fatalf("fault not accounted: %+v", snap.Sharding)
	}

	// Heal: with the fault gone the same query routes to fresh shard state.
	faults.Deactivate()
	var healed blockResponse
	if code := getJSON(t, ts.URL+"/v1/block/0"+qs, &healed); code != 200 {
		t.Fatalf("healed block query: status %d", code)
	}
	if !healed.Sharded || healed.Degraded {
		t.Fatalf("healed query not sharded: %+v", healed)
	}
	if snap := s.Snapshot(); snap.Sharding.Sets != 1 {
		t.Fatalf("healed build not installed: %+v", snap.Sharding)
	}
}

// TestShardSpillDemotionPromotion runs the layer under a tiny memory budget
// with a disk tier: shards demote, every block stays servable, and the
// demotion/promotion counters move.
func TestShardSpillDemotionPromotion(t *testing.T) {
	s, ts := newShardServer(t, Config{}, ShardingConfig{
		MemBudget: 2_000,
		SpillDir:  t.TempDir(),
	})
	el := gen.Caterpillar(16, 3) // one block per edge: many shards
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, ts, g, "")
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Auto})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.BlockCutTree()
	qs := "?graph=" + up.Fingerprint

	for b := 0; b < res.NumComponents; b++ {
		var br blockResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d%s", b, qs), &br); code != 200 {
			t.Fatalf("block %d: status %d", b, code)
		}
		if !br.Sharded || fmt.Sprint(br.Vertices) != fmt.Sprint(tree.VerticesOfBlock(int32(b))) {
			t.Fatalf("block %d wrong under budget pressure: %+v", b, br)
		}
	}
	snap := s.Snapshot()
	if snap.Sharding.Demotions == 0 {
		t.Fatalf("tiny budget caused no demotions: %+v", snap.Sharding)
	}
	if snap.Sharding.Promotions == 0 {
		t.Fatalf("no promotions while sweeping all blocks: %+v", snap.Sharding)
	}
	if snap.Sharding.SpillEntries == 0 || snap.Sharding.SpillBytes == 0 {
		t.Fatalf("spill tier unused: %+v", snap.Sharding)
	}
	if snap.Sharding.Invalidations != 0 {
		t.Fatalf("healthy demote/promote cycle invalidated sets: %+v", snap.Sharding)
	}
}

// TestShardDeleteGraphDropsShardState proves DELETE /v1/graphs/{fp} removes
// every algorithm/procs variant of the graph's shard state.
func TestShardDeleteGraphDropsShardState(t *testing.T) {
	s, ts := newShardServer(t, Config{}, ShardingConfig{})
	up := uploadGraph(t, ts, testGraph(t), "")
	qs := "?graph=" + up.Fingerprint
	for _, algo := range []string{"sequential", "tv-opt"} {
		if code := getJSON(t, ts.URL+"/v1/block/0"+qs+"&algorithm="+algo, nil); code != 200 {
			t.Fatalf("%s: status %d", algo, code)
		}
	}
	if snap := s.Snapshot(); snap.Sharding.Sets != 2 {
		t.Fatalf("sets=%d, want 2", snap.Sharding.Sets)
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
	if snap := s.Snapshot(); snap.Sharding.Sets != 0 {
		t.Fatalf("shard state survived graph deletion: %+v", snap.Sharding)
	}
	if code := getJSON(t, ts.URL+"/v1/block/0"+qs, nil); code != http.StatusNotFound {
		t.Fatalf("query after delete: status %d, want 404", code)
	}
}

// TestShardConcurrentQueriesDuringBuildAndEviction hammers the endpoints
// concurrently while builds, demotions, and deletions are in flight; run
// under -race this is the service-level data-race net for the shard path.
func TestShardConcurrentQueriesDuringBuildAndEviction(t *testing.T) {
	_, ts := newShardServer(t, Config{}, ShardingConfig{
		MemBudget: 3_000,
		SpillDir:  t.TempDir(),
	})
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
			for i := 0; i < 30; i++ {
				switch i % 3 {
				case 0:
					var br blockResponse
					code := getJSON(t, ts.URL+fmt.Sprintf("/v1/block/%d?graph=%s", (w+i)%nb, up.Fingerprint), &br)
					if code != 200 {
						t.Errorf("block: status %d", code)
						return
					}
				case 1:
					code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/blocks?graph=%s", (w*i)%g.NumVertices(), up.Fingerprint), nil)
					if code != 200 {
						t.Errorf("vertex blocks: status %d", code)
						return
					}
				case 2:
					code := getJSON(t, ts.URL+fmt.Sprintf("/v1/vertex/%d/articulation?graph=%s", i%g.NumVertices(), up.Fingerprint), nil)
					if code != 200 {
						t.Errorf("articulation: status %d", code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardClientCancelLeavesNoPartialState aborts a shard build through
// the client's deadline on a graph big enough to still be mid-build, then
// proves no partial shard state survived and the next (patient) query
// succeeds from a fresh build.
func TestShardClientCancelLeavesNoPartialState(t *testing.T) {
	s, ts := newShardServer(t, Config{}, ShardingConfig{})
	up := uploadGraph(t, ts, bigGraph(), "")

	code := getJSON(t, ts.URL+"/v1/vertex/0/blocks?graph="+up.Fingerprint+"&timeout_ms=1", nil)
	if code != http.StatusServiceUnavailable {
		// A fast machine may finish inside 1ms; only the no-partial-state
		// invariant below is unconditional.
		t.Logf("1ms query returned %d", code)
	}
	snap := s.Snapshot()
	if code != http.StatusOK && (snap.Sharding.Sets != 0 || snap.Sharding.ResidentShards != 0) {
		t.Fatalf("canceled build left partial state: %+v", snap.Sharding)
	}

	var vb vertexBlocksResponse
	if code := getJSON(t, ts.URL+"/v1/vertex/0/blocks?graph="+up.Fingerprint, &vb); code != 200 {
		t.Fatalf("patient query: status %d", code)
	}
	if !vb.Sharded || vb.Degraded {
		t.Fatalf("patient query after cancel: %+v", vb)
	}
}

// TestShardMetricsExposed checks the shard series appear on /metrics only
// when sharding is enabled.
func TestShardMetricsExposed(t *testing.T) {
	_, ts := newShardServer(t, Config{}, ShardingConfig{})
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
		"bicc_shard_sets 1",
		"bicc_shard_request_seconds",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("metrics missing %q", series)
		}
	}

	_, ts2 := newTestServer(t, Config{})
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body2), "bicc_shard_") {
		t.Fatal("non-sharded server exposes shard series")
	}
}
