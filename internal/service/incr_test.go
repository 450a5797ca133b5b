package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bicc"
	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/incr"
)

// postMutate sends one delta batch to ts and returns the decoded response
// plus the raw status code.
func postMutate(t *testing.T, ts *httptest.Server, fp string, deltas []mutationDelta) (mutateResponse, int, []byte) {
	t.Helper()
	body, err := json.Marshal(mutateRequest{Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/"+fp+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out mutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding mutate response: %v: %s", err, data)
		}
	}
	return out, resp.StatusCode, data
}

// mustMutate is postMutate that requires 200.
func mustMutate(t *testing.T, ts *httptest.Server, fp string, deltas []mutationDelta) mutateResponse {
	t.Helper()
	out, code, data := postMutate(t, ts, fp, deltas)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", code, data)
	}
	return out
}

// dropKeys renders a /v1/bcc response without the named fields.
// json.Marshal of a map emits sorted keys, so equal maps render equal
// bytes.
func dropKeys(t *testing.T, data []byte, keys ...string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("normalize: %v: %s", err, data)
	}
	for _, k := range keys {
		delete(m, k)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeBCC strips the per-request fields (timings, identity, serving
// path) from a /v1/bcc response so answers from a mutated graph and from a
// from-scratch upload of the same final edge list can be compared
// byte-for-byte.
func normalizeBCC(t *testing.T, data []byte) string {
	t.Helper()
	return dropKeys(t, data, "elapsed_ns", "phases", "cached", "incr", "graph", "trace")
}

// queryAll asks ts for the full view set of fp under algo, requiring 200.
func queryAll(t *testing.T, ts *httptest.Server, fp, algo string) []byte {
	t.Helper()
	resp, data := postBCC(t, ts, bccRequest{
		Graph:     fp,
		Algorithm: algo,
		Include:   []string{"components", "articulation", "bridges", "blockcut"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bcc(%s, %s): status %d: %s", fp, algo, resp.StatusCode, data)
	}
	return data
}

// shadowState mirrors the server-side mutations client-side so the test can
// generate structurally interesting batches (absorbable vs structural) and
// knows the exact final edge list to upload from scratch.
func shadowState(t *testing.T, el *graph.EdgeList) *incr.State {
	t.Helper()
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	st, err := incr.NewState(g, res)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sharedBlockOf reports whether u and v currently share a block, via the
// exported routing index.
func sharedBlockOf(st *incr.State, u, v int32) bool {
	a, b := st.BlocksOfVertex(u), st.BlocksOfVertex(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// randomMutationBatch mirrors the incr package's differential mix over the
// HTTP wire shape: absorbable inserts, arbitrary (possibly vertex-growing)
// inserts, and deletes of surviving edges.
func randomMutationBatch(rng *rand.Rand, st *incr.State, nd int) []mutationDelta {
	present := make(map[uint64]bool, st.NumEdges())
	for _, e := range st.Edges() {
		present[graph.CanonKey(e.U, e.V)] = true
	}
	edges := append([]graph.Edge(nil), st.Edges()...)
	var out []mutationDelta
	for len(out) < nd {
		switch rng.Intn(4) {
		case 0: // absorbable: same-block pair without an edge
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			f := edges[rng.Intn(len(edges))]
			for _, u := range [2]int32{e.U, e.V} {
				for _, v := range [2]int32{f.U, f.V} {
					if u != v && sharedBlockOf(st, u, v) && !present[graph.CanonKey(u, v)] {
						present[graph.CanonKey(u, v)] = true
						out = append(out, mutationDelta{Op: "insert", U: u, V: v})
						goto next
					}
				}
			}
		case 1: // arbitrary insert, sometimes to a brand-new vertex
			u := int32(rng.Intn(st.N()))
			v := int32(rng.Intn(st.N() + 3))
			if u == v || present[graph.CanonKey(u, v)] {
				continue
			}
			present[graph.CanonKey(u, v)] = true
			out = append(out, mutationDelta{Op: "insert", U: u, V: v})
		default: // delete a surviving edge
			if len(edges) == 0 {
				continue
			}
			i := rng.Intn(len(edges))
			e := edges[i]
			if !present[graph.CanonKey(e.U, e.V)] {
				continue
			}
			present[graph.CanonKey(e.U, e.V)] = false
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			out = append(out, mutationDelta{Op: "delete", U: e.U, V: e.V})
		}
	next:
	}
	return out
}

// applyShadow advances the client-side mirror with the exact batch the
// server acknowledged.
func applyShadow(t *testing.T, st *incr.State, batch []mutationDelta) {
	t.Helper()
	deltas, err := parseDeltas(batch)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, g *bicc.Graph) (*bicc.Result, error) {
		return bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: bicc.Sequential})
	}
	b, err := st.Prepare(deltas)
	if err != nil {
		t.Fatalf("shadow prepare: %v", err)
	}
	if _, err := st.Apply(context.Background(), b, incr.Config{}, run); err != nil {
		t.Fatalf("shadow apply: %v", err)
	}
}

// TestMutationEndpointDifferential is the service-level acceptance harness:
// for three graph families, a randomized mutation sequence streamed through
// POST /v1/graphs/{fp}/edges must leave the mutated graph answering every
// query — across every engine — byte-identically to a second server
// that uploaded the final edge list from scratch.
func TestMutationEndpointDifferential(t *testing.T) {
	families := []struct {
		name string
		el   *graph.EdgeList
	}{
		{"random", gen.RandomConnected(120, 340, 42)},
		{"torus", gen.Torus(8, 10)},
		{"star-chain", gen.Caterpillar(24, 4)},
	}
	algos := engine.Names()

	sm, tsm := newTestServer(t, Config{}) // mutated server
	_, tss := newTestServer(t, Config{})  // scratch server

	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(fi)*101 + 7))
			st := shadowState(t, fam.el)
			g0, err := bicc.NewGraph(st.N(), st.Edges())
			if err != nil {
				t.Fatal(err)
			}
			up := uploadGraph(t, tsm, g0, "name="+fam.name)
			gen0 := up.Generation
			if gen0 != 0 {
				t.Fatalf("fresh upload at generation %d", gen0)
			}
			for round := 0; round < 6; round++ {
				batch := randomMutationBatch(rng, st, 1+rng.Intn(5))
				out := mustMutate(t, tsm, up.Fingerprint, batch)
				if out.Generation != uint64(round+1) {
					t.Fatalf("round %d: generation %d", round, out.Generation)
				}
				applyShadow(t, st, batch)
				final, err := bicc.NewGraph(st.N(), st.Edges())
				if err != nil {
					t.Fatal(err)
				}
				if want := Fingerprint(final); out.ContentFP != want {
					t.Fatalf("round %d: content fp %s, shadow %s", round, out.ContentFP, want)
				}
				if out.Vertices != final.NumVertices() || out.Edges != final.NumEdges() {
					t.Fatalf("round %d: size %d/%d, shadow %d/%d",
						round, out.Vertices, out.Edges, final.NumVertices(), final.NumEdges())
				}
				ups := uploadGraph(t, tss, final, "")
				for _, algo := range algos {
					got := normalizeBCC(t, queryAll(t, tsm, up.Fingerprint, algo))
					want := normalizeBCC(t, queryAll(t, tss, ups.Fingerprint, algo))
					if got != want {
						t.Fatalf("round %d algo %s:\nmutated: %s\nscratch: %s", round, algo, got, want)
					}
				}
			}
		})
	}

	// The acceptance bar: the randomized mix must have exercised both the
	// absorb and the rebuild paths, and the maintained state must have
	// served queries.
	st := sm.incr
	absorbs, rebuilds := st.modes[incr.ModeAbsorb.String()].Load(), st.modes[incr.ModeRebuild.String()].Load()
	if absorbs == 0 || rebuilds == 0 {
		t.Fatalf("mutation mix did not exercise both absorb and rebuild: %d absorbs, %d rebuilds", absorbs, rebuilds)
	}
	if st.served.Load() == 0 {
		t.Fatal("no queries served from maintained state")
	}
	if st.deltas.Load() == 0 || st.batches.Load() == 0 || st.invalidated.Load() == 0 {
		t.Fatalf("incr counters incomplete: %d deltas, %d batches, %d invalidated",
			st.deltas.Load(), st.batches.Load(), st.invalidated.Load())
	}
}

// TestMutationValidationAndIdentity covers the client-error surface: bad
// ops, empty batches, duplicate inserts, deletes of absent edges, and
// mutations against unknown graphs — none of which may advance the
// generation.
func TestMutationValidationAndIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")

	if _, code, _ := postMutate(t, ts, "nope", []mutationDelta{{Op: "insert", U: 0, V: 2}}); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	cases := []struct {
		name  string
		batch []mutationDelta
	}{
		{"empty", nil},
		{"bad op", []mutationDelta{{Op: "upsert", U: 0, V: 2}}},
		{"self loop", []mutationDelta{{Op: "insert", U: 1, V: 1}}},
		{"present insert", []mutationDelta{{Op: "insert", U: 0, V: 1}}},
		{"absent delete", []mutationDelta{{Op: "delete", U: 0, V: 6}}},
		{"insert then delete", []mutationDelta{{Op: "insert", U: 0, V: 4}, {Op: "delete", U: 0, V: 4}}},
	}
	for _, tc := range cases {
		if _, code, data := postMutate(t, ts, up.Fingerprint, tc.batch); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, code, data)
		}
	}
	info, ok := getGraphInfo(t, ts, up.Fingerprint)
	if !ok || info.Generation != 0 {
		t.Fatalf("rejected batches advanced the graph: %+v ok=%v", info, ok)
	}

	// The singular route alias accepts the same request.
	body, _ := json.Marshal(mutateRequest{Deltas: []mutationDelta{{Op: "insert", U: 0, V: 4}}})
	resp, err := http.Post(ts.URL+"/v1/graph/"+up.Fingerprint+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("singular alias: status %d", resp.StatusCode)
	}
}

// TestMutationHugeVertexCount: one insert naming vertex 1999999999 used to
// grow a 3-vertex graph to two billion vertices, whose duplicate-edge check
// allocated 8 GB and killed bccd. It now answers 400 naming the count
// before the batch is prepared, and the next batch is served.
func TestMutationHugeVertexCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	path, err := bicc.NewGraph(3, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	fp := uploadGraph(t, ts, path, "").Fingerprint
	var code int
	var data []byte
	alloc := allocatedDuring(func() {
		_, code, data = postMutate(t, ts, fp, []mutationDelta{{Op: "insert", U: 0, V: 1999999999}})
	})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "2000000000 vertices") {
		t.Fatalf("huge insert: %d %s, want 400 naming the vertex count", code, data)
	}
	if alloc >= 64<<20 {
		t.Fatalf("the refused batch allocated %d bytes", alloc)
	}
	if out := mustMutate(t, ts, fp, []mutationDelta{{Op: "insert", U: 0, V: 2}}); out.Generation != 1 {
		t.Fatalf("batch after the refused one: %+v", out)
	}
}

func getGraphInfo(t *testing.T, ts *httptest.Server, fp string) (GraphInfo, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/graphs/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return GraphInfo{}, false
	}
	var info GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, true
}

// TestMutationInvalidatesCachesAcrossGenerations proves generation-aware
// invalidation end to end: a cached pre-mutation answer must never be
// served for the post-mutation graph, and re-querying the same generation
// still hits the cache.
func TestMutationInvalidatesCachesAcrossGenerations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")

	before := queryAll(t, ts, up.Fingerprint, "sequential")
	var b0 bccResponse
	if err := json.Unmarshal(before, &b0); err != nil {
		t.Fatal(err)
	}
	// Deleting the bridge 2-3 splits the graph: component count drops to 2.
	out := mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "delete", U: 2, V: 3}})
	if out.NumComponents != 2 {
		t.Fatalf("after bridge delete: %d components, want 2", out.NumComponents)
	}
	after := queryAll(t, ts, up.Fingerprint, "sequential")
	var a0 bccResponse
	if err := json.Unmarshal(after, &a0); err != nil {
		t.Fatal(err)
	}
	if a0.Cached {
		t.Fatal("post-mutation query served from pre-mutation cache")
	}
	if a0.NumComponents != 2 || b0.NumComponents != 3 {
		t.Fatalf("components before/after = %d/%d, want 3/2", b0.NumComponents, a0.NumComponents)
	}
	if !a0.Incr {
		t.Fatal("post-mutation query not served from maintained state")
	}
	// Same generation again: cache hit.
	var a1 bccResponse
	if err := json.Unmarshal(queryAll(t, ts, up.Fingerprint, "sequential"), &a1); err != nil {
		t.Fatal(err)
	}
	if !a1.Cached {
		t.Fatal("second post-mutation query missed the cache")
	}
}

// TestDeleteThenReuploadStartsClean is the stale-generation-leak test: a
// graph mutated to generation N, deleted, and re-uploaded under the same
// stable id must restart at generation 0 with no state, cached answer, or
// shard set from the previous incarnation leaking through — even when the
// new incarnation reaches the same generation numbers again.
func TestDeleteThenReuploadStartsClean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := testGraph(t)
	up := uploadGraph(t, ts, g, "")

	// First incarnation: mutate to gen 1 (delete the bridge), cache a query.
	mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "delete", U: 2, V: 3}})
	var inc1 bccResponse
	if err := json.Unmarshal(queryAll(t, ts, up.Fingerprint, "sequential"), &inc1); err != nil {
		t.Fatal(err)
	}
	if inc1.NumComponents != 2 {
		t.Fatalf("first incarnation gen 1: %d components, want 2", inc1.NumComponents)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+up.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", resp, err)
	}
	resp.Body.Close()

	// Second incarnation: same content, so the same stable id.
	up2 := uploadGraph(t, ts, g, "")
	if up2.Fingerprint != up.Fingerprint {
		t.Fatalf("re-upload changed the id: %s vs %s", up2.Fingerprint, up.Fingerprint)
	}
	info, ok := getGraphInfo(t, ts, up.Fingerprint)
	if !ok || info.Generation != 0 || info.ContentFP != "" {
		t.Fatalf("re-uploaded graph not at a clean generation 0: %+v", info)
	}
	var fresh bccResponse
	if err := json.Unmarshal(queryAll(t, ts, up.Fingerprint, "sequential"), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.NumComponents != 3 || fresh.Cached || fresh.Incr {
		t.Fatalf("re-uploaded graph served stale state: %+v", fresh)
	}

	// Reach generation 1 again with a DIFFERENT mutation: the answer must
	// reflect this incarnation's content, not the first one's cached gen-1
	// result.
	out := mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 3}})
	if out.Generation != 1 {
		t.Fatalf("second incarnation at generation %d, want 1", out.Generation)
	}
	var inc2 bccResponse
	if err := json.Unmarshal(queryAll(t, ts, up.Fingerprint, "sequential"), &inc2); err != nil {
		t.Fatal(err)
	}
	// Inserting 0-3 closes the cycle 0-2-3: the triangle, the bridge, and
	// the new edge merge into block {0,1,2,3}, leaving 3 as the only cut
	// vertex. The first incarnation's gen 1 (bridge deleted) had none — so
	// a leaked first-incarnation answer is detectable here.
	if inc1.NumArticulation != 0 {
		t.Fatalf("first incarnation gen 1: %d articulation points, want 0", inc1.NumArticulation)
	}
	if inc2.NumArticulation != 1 || inc2.NumComponents != 2 {
		t.Fatalf("second incarnation gen 1 served stale state: %+v", inc2)
	}
}

// TestMutationThresholdDegradesToFull pins the -incr-threshold wiring: with
// a microscopic threshold every structural batch reports mode "full" and
// answers still match a scratch upload.
func TestMutationThresholdDegradesToFull(t *testing.T) {
	_, tsm := newTestServer(t, Config{IncrThreshold: 1e-9})
	_, tss := newTestServer(t, Config{})
	st := shadowState(t, gen.RandomConnected(60, 150, 5))
	g0, err := bicc.NewGraph(st.N(), st.Edges())
	if err != nil {
		t.Fatal(err)
	}
	up := uploadGraph(t, tsm, g0, "")
	batch := []mutationDelta{{Op: "delete", U: st.Edges()[0].U, V: st.Edges()[0].V}}
	out := mustMutate(t, tsm, up.Fingerprint, batch)
	if out.Mode != "full" {
		t.Fatalf("threshold 1e-9 applied in mode %q, want full", out.Mode)
	}
	applyShadow(t, st, batch)
	final, err := bicc.NewGraph(st.N(), st.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ups := uploadGraph(t, tss, final, "")
	for _, algo := range []string{"sequential", "tv-filter"} {
		got := normalizeBCC(t, queryAll(t, tsm, up.Fingerprint, algo))
		want := normalizeBCC(t, queryAll(t, tss, ups.Fingerprint, algo))
		if got != want {
			t.Fatalf("full-mode answers diverge for %s:\n%s\n%s", algo, got, want)
		}
	}
}

// TestMutationsSurviveRestart closes the durability loop: delta records
// appended to the WAL must replay at boot into the mutated graph — correct
// generation, content fingerprint, and query answers.
func TestMutationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "name=mut")
	mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "delete", U: 2, V: 3}})
	out := mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 3}, {Op: "insert", U: 2, V: 7}})
	if out.Generation != 2 {
		t.Fatalf("generation %d, want 2", out.Generation)
	}
	want := normalizeBCC(t, queryAll(t, ts, up.Fingerprint, "sequential"))
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	s2, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 1 || rep.DroppedGraphs != 0 || rep.DroppedRecords != 0 {
		t.Fatalf("recovery: %+v", rep)
	}
	ts2 := newHTTPServer(t, s2)
	info, ok := getGraphInfo(t, ts2, up.Fingerprint)
	if !ok || info.Generation != 2 || info.ContentFP != out.ContentFP {
		t.Fatalf("recovered graph info: %+v (want gen 2, cfp %s)", info, out.ContentFP)
	}
	got := normalizeBCC(t, queryAll(t, ts2, up.Fingerprint, "sequential"))
	if got != want {
		t.Fatalf("recovered answers diverge:\nbefore: %s\nafter:  %s", want, got)
	}

	// Mutating the recovered graph keeps working and keeps counting.
	out3 := mustMutate(t, ts2, up.Fingerprint, []mutationDelta{{Op: "insert", U: 1, V: 4}})
	if out3.Generation != 3 {
		t.Fatalf("post-recovery mutation at generation %d, want 3", out3.Generation)
	}
}

// TestMutationPhasesSumToElapsed checks the stage breakdown on mutation
// responses: back-to-back stages in order, summing exactly to elapsed_ns.
// Only the first mutation of a graph seeds its state, and only a durable
// server has the wal and quorum stages: the delta reaches the WAL after
// apply, and the standby wait comes after publish.
func TestMutationPhasesSumToElapsed(t *testing.T) {
	durableSrv, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	for _, tc := range []struct {
		name    string
		ts      *httptest.Server
		durable bool
	}{
		{"durable", newHTTPServer(t, durableSrv), true},
		{"memory", newHTTPServer(t, New(Config{})), false},
	} {
		up := uploadGraph(t, tc.ts, testGraph(t), "")
		batches := [][]mutationDelta{
			{{Op: "delete", U: 2, V: 3}},
			{{Op: "insert", U: 0, V: 3}, {Op: "insert", U: 4, V: 6}},
		}
		for i, batch := range batches {
			_, code, data := postMutate(t, tc.ts, up.Fingerprint, batch)
			if code != http.StatusOK {
				t.Fatalf("%s batch %d: status %d: %s", tc.name, i, code, data)
			}
			var out struct {
				ElapsedNs int64 `json:"elapsed_ns"`
				Phases    []struct {
					Name string `json:"name"`
					Ns   int64  `json:"ns"`
				} `json:"phases"`
			}
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			want := []string{"decode"}
			if i == 0 {
				want = append(want, "seed")
			}
			want = append(want, "validate", "fingerprint", "apply")
			if tc.durable {
				want = append(want, "wal", "publish", "quorum")
			} else {
				want = append(want, "publish")
			}
			var names []string
			var sum int64
			for _, p := range out.Phases {
				if p.Ns < 0 {
					t.Fatalf("%s batch %d: stage %s took %d ns", tc.name, i, p.Name, p.Ns)
				}
				names = append(names, p.Name)
				sum += p.Ns
			}
			if strings.Join(names, ",") != strings.Join(want, ",") {
				t.Fatalf("%s batch %d: stages %v, want %v", tc.name, i, names, want)
			}
			if sum != out.ElapsedNs || sum <= 0 {
				t.Fatalf("%s batch %d: stages sum to %d ns, elapsed_ns %d", tc.name, i, sum, out.ElapsedNs)
			}
		}
	}
}

// TestMutatedGraphShardQueries checks per-block queries under mutation:
// indexes live on generation-keyed cache entries, a mutation invalidates
// them, and rebuilt indexes answer from the maintained labels.
func TestMutatedGraphShardQueries(t *testing.T) {
	s := New(Config{})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")

	getBlocks := func(v int) vertexBlocksResponse {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/vertex/%d/blocks?graph=%s", ts.URL, v, up.Fingerprint))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("blocks: status %d: %s", resp.StatusCode, body)
		}
		var out vertexBlocksResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if b := getBlocks(2); !b.IsCut {
		t.Fatalf("vertex 2 should be a cut vertex before mutation: %+v", b)
	}
	// Inserting 0-3 merges the triangle and the bridge into block {0,1,2,3},
	// leaving 3 as the only cut vertex — 2 stops being one.
	mustMutate(t, ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 3}})
	if b := getBlocks(2); b.IsCut {
		t.Fatalf("vertex 2 still reported as cut after the merge: %+v", b)
	}
	if s.incr.served.Load() == 0 {
		t.Fatal("per-block query did not use maintained labels")
	}
}

// TestMutatedGraphEvictionPurgesDerived: a graph evicted for space takes
// its maintained labels and its cached results with it, on a server
// without durability too, as a delete does: the same content uploaded
// again is a fresh entry at generation 0 with no labels.
func TestMutatedGraphEvictionPurgesDerived(t *testing.T) {
	a := testGraph(t)
	s := New(Config{MaxGraphBytes: graphBytes(a) * 3 / 2})
	ts := newHTTPServer(t, s)
	fpA := uploadGraph(t, ts, a, "").Fingerprint
	mustMutate(t, ts, fpA, []mutationDelta{{Op: "insert", U: 0, V: 3}})
	queryAll(t, ts, fpA, "sequential")
	labels := func() []int32 {
		t.Helper()
		pin, ok := s.registry.Acquire(fpA)
		if !ok {
			t.Fatalf("%s is not registered", fpA)
		}
		defer pin.Release()
		return pin.Labels
	}
	if labels() == nil {
		t.Fatal("mutated graph has no maintained labels")
	}
	if n, _ := seriesValue(scrapeHTTP(t, ts), "bicc_cached_results"); n == 0 {
		t.Fatal("query on the mutated graph left no cached result")
	}

	b := mkGraph(t, 7, []bicc.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 0}, {U: 0, V: 3},
	})
	uploadGraph(t, ts, b, "")
	if _, ok := s.registry.Get(fpA); ok || s.registry.Evicted() != 1 {
		t.Fatalf("uploading a second graph did not evict the first (evicted %d)", s.registry.Evicted())
	}
	if n, _ := seriesValue(scrapeHTTP(t, ts), "bicc_cached_results"); n != 0 {
		t.Errorf("bicc_cached_results = %v after the eviction, want 0", n)
	}
	if up := uploadGraph(t, ts, a, ""); up.Existed || up.Generation != 0 {
		t.Fatalf("re-upload after the eviction: existed %v, generation %d", up.Existed, up.Generation)
	}
	if labels() != nil {
		t.Error("evicted graph kept its maintained labels")
	}
}

// TestCommitsConvertNothing: a batch's graph is simple by the rules that
// accepted the batch, so it is wrapped with no duplicate check and no CSR,
// and the only conversions left are those of the graph records that a
// restart or a standby decodes, each checked as an upload is. (The
// duplicate check is one pass over the CSR it builds, so a path that
// converts nothing runs no check either.) Three paths read
// bicc_csr_conversions_total: the primary's absorb-only commits, a restart
// that replays them as delta records, and a standby that applies them.
func TestCommitsConvertNothing(t *testing.T) {
	absorbs := [][]mutationDelta{
		{{Op: "insert", U: 3, V: 5}},
		{{Op: "insert", U: 4, V: 6}},
	}
	commit := func(ts *httptest.Server, fp string) {
		t.Helper()
		for _, batch := range absorbs {
			if out := mustMutate(t, ts, fp, batch); out.Mode != "absorb" {
				t.Fatalf("batch %v applied in mode %q, want absorb", batch, out.Mode)
			}
		}
	}

	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")
	before := csrConversions()
	commit(ts, up.Fingerprint)
	if n := csrConversions() - before; n != 0 {
		t.Fatalf("two absorb-only commits made %d conversions, want 0", n)
	}
	want := normalizeBCC(t, queryAll(t, ts, up.Fingerprint, "sequential"))
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	before = csrConversions()
	s2, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 1 || rep.WALRecords != 3 || rep.SnapshotRecords != 0 {
		t.Fatalf("recovery: %+v, want one graph from a graph-add and two delta records", rep)
	}
	if n := csrConversions() - before; n != 1 {
		t.Fatalf("replaying a graph-add and two delta records made %d conversions, want 1", n)
	}
	if got := normalizeBCC(t, queryAll(t, newHTTPServer(t, s2), up.Fingerprint, "sequential")); got != want {
		t.Fatalf("replayed answers diverge:\nbefore: %s\nafter:  %s", want, got)
	}

	pri, stb := replicaPair(t)
	up = uploadGraph(t, pri.ts, testGraph(t), "")
	waitCaughtUp(t, pri, stb)
	before = csrConversions()
	commit(pri.ts, up.Fingerprint)
	waitCaughtUp(t, pri, stb)
	if n := csrConversions() - before; n != 0 {
		t.Fatalf("two commits applied by the primary and its standby made %d conversions, want 0", n)
	}
	if got, want := normalizeBCC(t, queryAll(t, stb.ts, up.Fingerprint, "sequential")),
		normalizeBCC(t, queryAll(t, pri.ts, up.Fingerprint, "sequential")); got != want {
		t.Fatalf("standby answers diverge:\nprimary: %s\nstandby: %s", want, got)
	}
}
