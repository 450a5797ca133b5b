package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// TestPlanRunsSequentialAtP1 checks that with the planner enabled an
// unannotated algorithm:"auto" query pinned to procs 1 dispatches the
// sequential engine, which beat every parallel engine at p=1 on each input
// the prior was fitted on, verified through both ?explain=1 and the
// bicc_plan_* counters.
func TestPlanRunsSequentialAtP1(t *testing.T) {
	s, ts := newTestServer(t, Config{PlanMode: PlanAdaptive})
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
	if out.Plan == nil || out.Plan.Mode != PlanAdaptive || out.Plan.Engine != "sequential" || out.Plan.Procs != 1 {
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
// planner on and off, cold and cached — and that the planner routes
// identical queries identically, so repeats are served from the cache.
func TestPlanExplainMatchesDispatch(t *testing.T) {
	for _, mode := range []string{PlanAdaptive, PlanOff} {
		t.Run(mode, func(t *testing.T) {
			_, ts := newTestServer(t, Config{PlanMode: mode})
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
				if mode == PlanOff {
					if out.Plan.Mode != PlanOff || out.Plan.Decision != nil {
						t.Fatalf("off-mode echo: %+v", out.Plan)
					}
				} else if out.Plan.Decision == nil || out.Plan.Decision.Engine != out.Algorithm {
					t.Fatalf("decision echo: %+v vs %q", out.Plan.Decision, out.Algorithm)
				}
			}
			if mode == PlanAdaptive {
				// Identical unpinned queries: one (engine, procs) every time,
				// and every repeat after the first served from the cache.
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
}

// TestPlanAvoidsOpenBreaker is the service-level safety-net property: once
// the circuit breaker of the engine the planner picks opens, the planner
// must stop choosing it — immediately and without consuming the breaker's
// half-open probe budget. procs is pinned to 2, where only the parallel
// engines, the ones with breakers, are candidates.
func TestPlanAvoidsOpenBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{PlanMode: PlanAdaptive, BreakerThreshold: 3})
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

// normalizePlanBCC strips every field that may legitimately differ between a
// planner-routed query and a statically-routed one: the engine name, procs,
// timings, serving path, and the plan echo itself. What remains is the
// answer — which must be byte-identical, since all engines produce the same
// canonical labeling.
func normalizePlanBCC(t *testing.T, data []byte) string {
	t.Helper()
	return dropKeys(t, data, "elapsed_ns", "phases", "cached", "incr", "graph", "trace", "algorithm", "plan")
}

// TestPlanDifferentialAutoOnOff runs the same query and mutation workload
// against an adaptive-planner server and a planner-off server and asserts
// every normalized answer is byte-equal: planner choices change latency,
// never answers. The mutation leg routes the incremental subsystem's
// degrade-to-full path through the planner as well.
func TestPlanDifferentialAutoOnOff(t *testing.T) {
	_, planned := newTestServer(t, Config{PlanMode: PlanAdaptive, IncrThreshold: 0.01})
	_, static := newTestServer(t, Config{PlanMode: PlanOff, IncrThreshold: 0.01})

	for name, g := range map[string]*bicc.Graph{"small": testGraph(t), "dense": denseGraph()} {
		upP := uploadGraph(t, planned, g, "")
		upS := uploadGraph(t, static, g, "")
		if upP.Fingerprint != upS.Fingerprint {
			t.Fatalf("%s: fingerprints diverge", name)
		}
		// Repeats are served from either server's cache; every answer must
		// still match the static one.
		for i := 0; i < 20; i++ {
			got := normalizePlanBCC(t, queryAll(t, planned, upP.Fingerprint, "auto"))
			want := normalizePlanBCC(t, queryAll(t, static, upS.Fingerprint, "auto"))
			if got != want {
				t.Fatalf("%s iteration %d:\nplanned: %s\nstatic:  %s", name, i, got, want)
			}
		}
		// Mutate both servers identically: intra-block absorbs and a batch
		// past the tiny threshold, which degrades to a planned full run.
		deltas := []mutationDelta{
			{Op: "insert", U: 0, V: int32(g.NumVertices() - 1)},
			{Op: "insert", U: 1, V: int32(g.NumVertices() - 2)},
		}
		mustMutate(t, planned, upP.Fingerprint, deltas)
		mustMutate(t, static, upS.Fingerprint, deltas)
		got := normalizePlanBCC(t, queryAll(t, planned, upP.Fingerprint, "auto"))
		want := normalizePlanBCC(t, queryAll(t, static, upS.Fingerprint, "auto"))
		if got != want {
			t.Fatalf("%s after mutation:\nplanned: %s\nstatic:  %s", name, got, want)
		}
		// Per-block endpoints resolve Auto through the planner before the
		// cache lookup, like /v1/bcc; their answers must match the static
		// server's byte for byte.
		for _, path := range []string{
			"/v1/block/0?graph=", "/v1/vertex/0/blocks?graph=", "/v1/vertex/0/articulation?graph=",
		} {
			var gm, sm map[string]any
			if code := getJSON(t, planned.URL+path+upP.Fingerprint, &gm); code != http.StatusOK {
				t.Fatalf("%s %s: status %d (planned)", name, path, code)
			}
			if code := getJSON(t, static.URL+path+upS.Fingerprint, &sm); code != http.StatusOK {
				t.Fatalf("%s %s: status %d (static)", name, path, code)
			}
			for _, k := range []string{"algorithm", "graph"} {
				delete(gm, k)
				delete(sm, k)
			}
			gb, _ := json.Marshal(gm)
			sb, _ := json.Marshal(sm)
			if string(gb) != string(sb) {
				t.Fatalf("%s %s:\nplanned: %s\nstatic:  %s", name, path, gb, sb)
			}
		}
	}
}

// TestNewRejectsUnknownPlanMode checks that New fails loudly on a plan mode
// ParsePlanMode rejects, instead of silently routing auto by the static
// rule.
func TestNewRejectsUnknownPlanMode(t *testing.T) {
	for _, mode := range []string{"frozen", "adaptiv"} {
		t.Run(mode, func(t *testing.T) {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), strconv.Quote(mode)) {
					t.Fatalf("New(PlanMode %q): recovered %v, want a panic with an error naming the mode", mode, r)
				}
			}()
			New(Config{PlanMode: mode})
		})
	}
}

// TestPlanFeaturesFollowGraphIdentity checks that the planner reads the
// graph a query runs on: the explain echo's n and m follow a mutation's
// Replace, and a delete followed by a re-upload of the original graph.
func TestPlanFeaturesFollowGraphIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{PlanMode: PlanAdaptive})
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
	s, _ := newTestServer(t, Config{PlanMode: PlanAdaptive})
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
