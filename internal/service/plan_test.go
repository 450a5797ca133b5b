package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"bicc"
)

// denseGraph is an m = 4n random connected graph, shared across the plan
// tests.
var denseGraph = sync.OnceValue(func() *bicc.Graph {
	g, err := bicc.RandomConnectedGraph(10_000, 40_000, 11)
	if err != nil {
		panic(err)
	}
	return g
})

// postBCCExplain is postBCC against /v1/bcc?explain=1.
func postBCCExplain(t *testing.T, ts *httptest.Server, req bccRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/bcc?explain=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPlanRunsSequentialAtP1 checks that an algorithm:"auto" query pinned
// to procs 1 dispatches the sequential engine, which beat every parallel
// engine at p=1 on each input the prior was fitted on, verified through
// both ?explain=1 and the bicc_plan_* counters.
func TestPlanRunsSequentialAtP1(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, denseGraph(), "name=dense4n")

	resp, data := postBCCExplain(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out bccResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "sequential" {
		t.Fatalf("auto at p=1 dispatched %q, want sequential: %s", out.Algorithm, data)
	}
	if out.Degraded {
		t.Fatalf("degraded run: %s", data)
	}
	if out.Plan == nil || out.Plan.Engine != "sequential" || out.Plan.Procs != 1 {
		t.Fatalf("explain echo: %+v", out.Plan)
	}
	if f := out.Plan.Features; f == nil || f.N != 10_000 || f.M != 40_000 || f.DensityClass != 2 {
		t.Fatalf("features echo: %+v", out.Plan.Features)
	}
	if out.Plan.Decision == nil || len(out.Plan.Decision.Candidates) == 0 {
		t.Fatalf("decision echo carries no candidates: %+v", out.Plan.Decision)
	}

	if n := s.metrics.CounterVec("bicc_plan_decisions_total", "", "engine").With("sequential").Load(); n != 1 {
		t.Fatalf("bicc_plan_decisions_total{engine=\"sequential\"} = %d, want 1", n)
	}
	if n := s.metrics.CounterVec("bicc_plan_procs_total", "", "procs").With("1").Load(); n != 1 {
		t.Fatalf("bicc_plan_procs_total{procs=\"1\"} = %d, want 1", n)
	}
}

// TestPlanExplainMatchesDispatch asserts the ?explain=1 echo always names
// the engine and procs the request actually ran with — pinned and unpinned,
// cold and cached — and that the planner routes identical queries
// identically, so repeats are served from the cache. The server is built
// with the deprecated PlanMode value the benchmark still sets, which must
// leave auto planned as on a default Config.
func TestPlanExplainMatchesDispatch(t *testing.T) {
	t.Run(PlanAdaptive, func(t *testing.T) {
		_, ts := newTestServer(t, Config{PlanMode: PlanAdaptive})
		up := uploadGraph(t, ts, denseGraph(), "")
		explainAuto := func(procs int) bccResponse {
			t.Helper()
			resp, data := postBCCExplain(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: procs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("procs=%d: status %d: %s", procs, resp.StatusCode, data)
			}
			var out bccResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			return out
		}
		for _, procs := range []int{1, 0, 2, 1} { // final 1 repeats: cache hit
			out := explainAuto(procs)
			if out.Plan == nil {
				t.Fatalf("procs=%d: no plan echo: %+v", procs, out)
			}
			if out.Plan.Engine != out.Algorithm {
				t.Fatalf("procs=%d: explain says %q, dispatched %q", procs, out.Plan.Engine, out.Algorithm)
			}
			if procs > 0 && out.Plan.Procs != procs {
				t.Fatalf("procs=%d: explain procs %d", procs, out.Plan.Procs)
			}
			if out.Plan.Decision == nil || out.Plan.Decision.Engine != out.Algorithm {
				t.Fatalf("decision echo: %+v vs %q", out.Plan.Decision, out.Algorithm)
			}
		}
		// Identical unpinned queries: one (engine, procs) every time, and every
		// repeat after the first served from the cache.
		first := explainAuto(0)
		for i := 1; i < 20; i++ {
			out := explainAuto(0)
			if out.Plan.Engine != first.Plan.Engine || out.Plan.Procs != first.Plan.Procs {
				t.Fatalf("repeat %d planned (%s, p=%d), first planned (%s, p=%d)",
					i, out.Plan.Engine, out.Plan.Procs, first.Plan.Engine, first.Plan.Procs)
			}
			if !out.Cached {
				t.Fatalf("repeat %d missed the cache", i)
			}
		}
		// Without ?explain=1 the response carries no plan section.
		_, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: 1})
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Plan != nil {
			t.Fatalf("plan echo without explain: %s", data)
		}
	})
}

// TestPlanAvoidsOpenBreaker is the service-level safety-net property: once
// the circuit breaker of the engine the planner picks opens, the planner
// must stop choosing it — immediately and without consuming the breaker's
// half-open probe budget. procs is pinned to 2, where only the parallel
// engines, the ones with breakers, are candidates.
func TestPlanAvoidsOpenBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{BreakerThreshold: 3})
	up := uploadGraph(t, ts, denseGraph(), "")
	query := func() bccResponse {
		t.Helper()
		resp, data := postBCCExplain(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Degraded {
			t.Fatalf("planner sent the query into a degraded path: %s", data)
		}
		return out
	}

	picked := query().Algorithm
	br := s.breakers[picked]
	if br == nil {
		t.Fatalf("planner picked %q at procs 2, which has no breaker", picked)
	}
	for i := 0; i < 3; i++ {
		br.Record(true)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker state %v after faults", br.State())
	}

	for i := 0; i < 8; i++ {
		if out := query(); out.Algorithm == picked || out.Plan.Engine == picked {
			t.Fatalf("iteration %d chose the open-breaker engine %s", i, picked)
		}
	}
	if br.State() != BreakerOpen {
		t.Fatalf("planning consumed the breaker's half-open probe: state %v", br.State())
	}
}

// normalizePlanBCC strips every field that may legitimately differ between
// an auto query and one naming a fixed engine: the engine name, timings,
// serving path, and the plan echo. What remains is the answer — which must
// be byte-identical, since all engines produce the same canonical labeling.
func normalizePlanBCC(t *testing.T, data []byte) string {
	t.Helper()
	return dropKeys(t, data, "elapsed_ns", "phases", "cached", "incr", "graph", "trace", "algorithm", "plan")
}

// planAnswers asks ts about graph fp through /v1/bcc and the three
// per-block endpoints, under auto and then under every fixed engine, and
// requires every engine's normalized answer on each path to equal auto's.
// It returns auto's answers, path by path.
func planAnswers(t *testing.T, ts *httptest.Server, fp string) []string {
	t.Helper()
	var out []string
	// Repeats are served from the cache; every answer must still match.
	for i := 0; i < 3; i++ {
		want := normalizePlanBCC(t, queryAll(t, ts, fp, "auto"))
		for _, a := range bicc.Algorithms() {
			if got := normalizePlanBCC(t, queryAll(t, ts, fp, a.String())); got != want {
				t.Fatalf("/v1/bcc round %d, %v:\n%s\nauto:\n%s", i, a, got, want)
			}
		}
		if i == 0 {
			out = append(out, want)
		}
	}
	// Per-block endpoints resolve auto through the planner before the cache
	// lookup, like /v1/bcc.
	block := func(path, algo string) string {
		var m map[string]any
		if code := getJSON(t, ts.URL+path+fp+"&algorithm="+algo, &m); code != http.StatusOK {
			t.Fatalf("%s under %s: status %d", path, algo, code)
		}
		delete(m, "algorithm")
		delete(m, "graph")
		b, _ := json.Marshal(m)
		return string(b)
	}
	for _, path := range []string{
		"/v1/block/0?graph=", "/v1/vertex/0/blocks?graph=", "/v1/vertex/0/articulation?graph=",
	} {
		want := block(path, "auto")
		for _, a := range bicc.Algorithms() {
			if got := block(path, a.String()); got != want {
				t.Fatalf("%s under %v:\n%s\nauto:\n%s", path, a, got, want)
			}
		}
		out = append(out, want)
	}
	return out
}

// TestPlanDifferentialAutoVsFixed asserts that whatever the planner picks,
// an auto query answers byte for byte as every fixed engine does: on
// /v1/bcc and the per-block endpoints, after upload, after a mutation, and
// against an upload of the mutated edge list from scratch, where every
// fixed engine runs on the final graph. The dense graph absorbs the
// mutation batch; on the small one it passes the tiny threshold, so the
// incremental subsystem's degrade-to-full path runs the planner's engine.
func TestPlanDifferentialAutoVsFixed(t *testing.T) {
	_, ts := newTestServer(t, Config{IncrThreshold: 0.01})
	for name, g := range map[string]*bicc.Graph{"small": testGraph(t), "dense": denseGraph()} {
		t.Run(name, func(t *testing.T) {
			fp := uploadGraph(t, ts, g, "").Fingerprint
			planAnswers(t, ts, fp)

			n := int32(g.NumVertices())
			deltas := []mutationDelta{
				{Op: "insert", U: 0, V: n - 1},
				{Op: "insert", U: 1, V: n - 2},
			}
			mustMutate(t, ts, fp, deltas)
			mutated := planAnswers(t, ts, fp)

			edges := append(slices.Clone(g.Edges()), bicc.Edge{U: 0, V: n - 1}, bicc.Edge{U: 1, V: n - 2})
			final, err := bicc.NewGraph(int(n), edges)
			if err != nil {
				t.Fatal(err)
			}
			scratch := planAnswers(t, ts, uploadGraph(t, ts, final, "").Fingerprint)
			if !slices.Equal(mutated, scratch) {
				t.Fatalf("mutated graph answers\n%v\nthe final graph uploaded from scratch answers\n%v", mutated, scratch)
			}
		})
	}
}

// TestPlanFeaturesFollowGraphIdentity checks that the planner reads the
// graph a query runs on: the explain echo's n and m follow a mutation's
// Replace, and a delete followed by a re-upload of the original graph.
func TestPlanFeaturesFollowGraphIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 256
	edges := make([]bicc.Edge, 0, n-1)
	for v := int32(1); v < n; v++ {
		edges = append(edges, bicc.Edge{U: v - 1, V: v})
	}
	g, err := bicc.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(fp string) (int, int) {
		t.Helper()
		resp, data := postBCCExplain(t, ts, bccRequest{Graph: fp, Algorithm: "auto"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Plan == nil || out.Plan.Features == nil {
			t.Fatalf("no features echo: %s", data)
		}
		return out.Plan.Features.N, out.Plan.Features.M
	}

	fp := uploadGraph(t, ts, g, "").Fingerprint
	if gotN, gotM := counts(fp); gotN != n || gotM != n-1 {
		t.Fatalf("path planned as n=%d m=%d", gotN, gotM)
	}
	// Close the path into a cycle and hang a new vertex off it.
	mustMutate(t, ts, fp, []mutationDelta{{Op: "insert", U: 0, V: n - 1}, {Op: "insert", U: n - 1, V: n}})
	if gotN, gotM := counts(fp); gotN != n+1 || gotM != n+1 {
		t.Fatalf("mutated graph planned as n=%d m=%d, want %d and %d", gotN, gotM, n+1, n+1)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+fp, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if again := uploadGraph(t, ts, g, "").Fingerprint; again != fp {
		t.Fatalf("re-upload fingerprint %s, first %s", again, fp)
	}
	if gotN, gotM := counts(fp); gotN != n || gotM != n-1 {
		t.Fatalf("re-uploaded path planned as n=%d m=%d", gotN, gotM)
	}
}

// TestPlanDecideAllocatesNothing checks that planning an auto query does no
// work proportional to the graph: the plan step allocates nothing, on a
// resident G(100000, 1000000) as on a 10-edge graph.
func TestPlanDecideAllocatesNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	big, err := bicc.RandomConnectedGraph(100_000, 1_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	small, err := bicc.RandomConnectedGraph(8, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*bicc.Graph{"G(100000, 1000000)": big, "10 edges": small} {
		fp := Fingerprint(g)
		s.registry.Add(fp, name, g)
		if allocs := testing.AllocsPerRun(20, func() { s.planDecide(g, 0, false) }); allocs != 0 {
			t.Errorf("%s: planning allocates %.0f times per query, want 0", name, allocs)
		}
	}
}
