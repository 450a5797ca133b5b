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
	"bicc/internal/plan"
)

// denseGraph is an m = 4n random connected graph big enough to clear the
// planner's small-work region (work = n + 2m ≈ 90k > 64Ki), shared across
// the plan tests.
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

// TestPlanPromotesFastBCCAtP1 is the PR's acceptance criterion: with the
// planner enabled and no latency history, an unannotated algorithm:"auto"
// query on an m = 4n graph at procs 1 dispatches the fast-bcc engine — the
// FAST-BCC promotion ROADMAP gated on multi-core evidence — verified through
// both ?explain=1 and the bicc_plan_* counters on /statsz.
func TestPlanPromotesFastBCCAtP1(t *testing.T) {
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
	if out.Algorithm != "fast-bcc" {
		t.Fatalf("auto m=4n at p=1 dispatched %q, want fast-bcc: %s", out.Algorithm, data)
	}
	if out.Degraded {
		t.Fatalf("degraded run: %s", data)
	}
	if out.Plan == nil || out.Plan.Mode != PlanAdaptive || out.Plan.Engine != "fast-bcc" || out.Plan.Procs != 1 {
		t.Fatalf("explain echo: %+v", out.Plan)
	}
	if out.Plan.Features == nil || out.Plan.Features.DensityClass != 2 {
		t.Fatalf("features echo: %+v", out.Plan.Features)
	}
	if out.Plan.Decision == nil || len(out.Plan.Decision.Candidates) == 0 {
		t.Fatalf("decision echo carries no candidates: %+v", out.Plan.Decision)
	}

	snap := s.Snapshot()
	if snap.Plan == nil {
		t.Fatal("statsz has no plan section with the planner enabled")
	}
	if snap.Plan.Decisions != 1 || snap.Plan.ByEngine["fast-bcc"] != 1 {
		t.Fatalf("plan snapshot: %+v", snap.Plan)
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
// fast-bcc's circuit breaker opens, the planner must stop choosing fast-bcc
// — immediately and without consuming the breaker's half-open probe budget.
func TestPlanAvoidsOpenBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{PlanMode: PlanAdaptive, BreakerThreshold: 3})
	up := uploadGraph(t, ts, denseGraph(), "")

	br := s.breakers["fast-bcc"]
	for i := 0; i < 3; i++ {
		br.Record(true)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker state %v after faults", br.State())
	}

	for i := 0; i < 8; i++ {
		resp, data := postBCCExplain(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Algorithm == "fast-bcc" || (out.Plan != nil && out.Plan.Engine == "fast-bcc") {
			t.Fatalf("iteration %d chose the open-breaker engine: %s", i, data)
		}
		if out.Degraded {
			t.Fatalf("planner sent the query into a degraded path: %s", data)
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
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("normalize: %v: %s", err, data)
	}
	for _, k := range []string{"elapsed_ns", "phases", "cached", "incr", "graph", "trace", "algorithm", "plan"} {
		delete(m, k)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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

// TestPlanStatszGolden pins the plan section's /statsz JSON shape.
func TestPlanStatszGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{PlanMode: PlanAdaptive})
	up := uploadGraph(t, ts, testGraph(t), "")
	for i := 0; i < 3; i++ {
		postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "auto", Procs: 1})
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	sec, ok := m["plan"].(map[string]any)
	if !ok {
		t.Fatalf("statsz plan section missing: %v", m["plan"])
	}
	if sec["decisions"] != float64(3) {
		t.Fatalf("plan.decisions = %v, want 3", sec["decisions"])
	}
	// The tiny test graph sits in the sequential region; all three decisions
	// land on one engine.
	by, ok := sec["by_engine"].(map[string]any)
	if !ok || len(by) != 1 {
		t.Fatalf("plan.by_engine = %v", sec["by_engine"])
	}
	// fallbacks is omitted while zero.
	keys := []string{"max_procs", "decisions", "by_engine", "by_procs"}
	for _, k := range keys {
		if _, ok := sec[k]; !ok {
			t.Errorf("plan section missing %q: %v", k, sec)
		}
	}
	if len(sec) != len(keys) {
		t.Errorf("plan section has keys beyond %v: %v", keys, sec)
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

// TestPlanFeaturesFollowGraphIdentity registers a path, deletes it, and
// registers a star of equal n and m in the same allocation — what a new
// upload at a collected graph's address looks like. Each is planned from
// its own features: they live with the registry entry, not the address.
func TestPlanFeaturesFollowGraphIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{PlanMode: PlanAdaptive})
	const n = 256
	edges := make([]bicc.Edge, 0, n-1)
	for v := int32(1); v < n; v++ {
		edges = append(edges, bicc.Edge{U: v - 1, V: v})
	}
	g, err := bicc.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	diamClass := func(fp string) int {
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
		return out.Plan.Features.DiamClass
	}

	pathFP := Fingerprint(g)
	s.registry.Add(pathFP, "path", g)
	if d := diamClass(pathFP); d != plan.DiamHigh {
		t.Fatalf("path planned with diameter class %d, want %d", d, plan.DiamHigh)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+pathFP, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	for v := int32(1); v < n; v++ {
		g.Edges()[v-1] = bicc.Edge{U: 0, V: v}
	}
	starFP := Fingerprint(g)
	s.registry.Add(starFP, "star", g)
	if d := diamClass(starFP); d != plan.DiamLow {
		t.Fatalf("star planned with diameter class %d, want %d", d, plan.DiamLow)
	}
}
