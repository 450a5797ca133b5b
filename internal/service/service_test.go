package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicc"
	"bicc/internal/engine"
	"bicc/internal/graph"
)

// testGraph is a small fixed decomposition target: a triangle {0,1,2}, a
// bridge 2–3, and a square {3,4,5,6} — 3 blocks, cut vertices {2, 3}, one
// bridge.
func testGraph(t *testing.T) *bicc.Graph {
	t.Helper()
	g, err := bicc.NewGraph(7, []bicc.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bigGraph is shared by the tests that need runs long enough to interrupt.
var bigGraph = sync.OnceValue(func() *bicc.Graph {
	g, err := bicc.RandomConnectedGraph(50_000, 200_000, 7)
	if err != nil {
		panic(err)
	}
	return g
})

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func uploadGraph(t *testing.T, ts *httptest.Server, g *bicc.Graph, query string) graphUploadResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := bicc.WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/graphs?format=binary"
	if query != "" {
		url += "&" + query
	}
	resp, err := http.Post(url, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var out graphUploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postBCC(t *testing.T, ts *httptest.Server, req bccRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/bcc", "application/json", bytes.NewReader(body))
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

func TestEndToEndQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "name=demo")
	if up.Vertices != 7 || up.Edges != 8 || up.Existed {
		t.Fatalf("upload response: %+v", up)
	}
	resp, data := postBCC(t, ts, bccRequest{
		Graph:     up.Fingerprint,
		Algorithm: "tv-opt",
		Include:   []string{"articulation", "bridges", "blockcut"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out bccResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.NumComponents != 3 {
		t.Fatalf("num_components = %d, want 3: %s", out.NumComponents, data)
	}
	if len(out.ArticulationPoints) != 2 || out.ArticulationPoints[0] != 2 || out.ArticulationPoints[1] != 3 {
		t.Fatalf("articulation points = %v, want [2 3]", out.ArticulationPoints)
	}
	if len(out.Bridges) != 1 || out.Bridges[0] != 3 {
		t.Fatalf("bridges = %v, want [3]", out.Bridges)
	}
	if out.BlockCut == nil || out.BlockCut.NumBlocks != 3 || out.BlockCut.NumNodes != 5 {
		t.Fatalf("blockcut = %+v", out.BlockCut)
	}
	// Second identical query must be a cache hit.
	resp2, data2 := postBCC(t, ts, bccRequest{
		Graph:     up.Fingerprint,
		Algorithm: "tv-opt",
		Include:   []string{"articulation", "bridges", "blockcut"},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, data2)
	}
	var out2 bccResponse
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Fatal("second identical query was not served from cache")
	}
	if snap := s.Snapshot(); snap.CacheHits != 1 || snap.Computations != 1 {
		t.Fatalf("stats after hit: %+v", snap)
	}
}

func TestUploadDedupAndNormalize(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up1 := uploadGraph(t, ts, testGraph(t), "")
	up2 := uploadGraph(t, ts, testGraph(t), "")
	if up1.Fingerprint != up2.Fingerprint {
		t.Fatalf("same content, different fingerprints: %s vs %s", up1.Fingerprint, up2.Fingerprint)
	}
	if !up2.Existed {
		t.Fatal("re-upload not reported as existing")
	}
	// Normalize path: text upload with a self loop and duplicate.
	body := "p 3 4\n0 1\n1 1\n1 2\n0 1\n"
	resp, err := http.Post(ts.URL+"/v1/graphs?normalize=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out graphUploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Edges != 2 || out.Loops != 1 || out.Dups != 1 {
		t.Fatalf("normalize upload: status %d, %+v", resp.StatusCode, out)
	}
}

// postRawGraph uploads body as-is and decodes the answer.
func postRawGraph(t *testing.T, ts *httptest.Server, query string, body []byte) (int, graphUploadResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var out graphUploadResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out, string(data)
}

// TestUploadRejectsDuplicateEdges: without normalize=1, text and binary
// uploads with a parallel edge were accepted, after which every mutation of
// the graph failed and a durable restart dropped it. They must get a 400
// naming the repeated edge, and normalize=1 must still clean them.
func TestUploadRejectsDuplicateEdges(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dup := &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}}}
	var text, bin bytes.Buffer
	if err := graph.Write(&text, dup); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&bin, dup); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format string
		body   []byte
	}{{"text", text.Bytes()}, {"binary", bin.Bytes()}} {
		code, _, msg := postRawGraph(t, ts, "format="+tc.format, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, "duplicate edge 1 (0,1)") {
			t.Fatalf("%s upload with a duplicate edge: %d %s", tc.format, code, msg)
		}
		code, out, msg := postRawGraph(t, ts, "normalize=1&format="+tc.format, tc.body)
		if code != http.StatusOK || out.Dups != 1 || out.Edges != 2 {
			t.Fatalf("%s upload with normalize=1: %d %s", tc.format, code, msg)
		}
	}
}

// TestUploadHugeHeaderCount: a 15-byte text body declaring 2·10⁹ edges
// used to make the reader allocate 16 GB and kill the daemon. It must get
// a 400, and the daemon must go on serving uploads.
func TestUploadHugeHeaderCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte("p 1 2000000000\n")
	code, _, msg := postRawGraph(t, ts, "format=text", body)
	if code != http.StatusBadRequest || !strings.Contains(msg, "header declares 2000000000 edges, found 0") {
		t.Fatalf("huge header count: %d %s", code, msg)
	}
	var text bytes.Buffer
	if err := bicc.WriteGraph(&text, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	if code, _, msg := postRawGraph(t, ts, "format=text", text.Bytes()); code != http.StatusOK {
		t.Fatalf("upload after the huge header: %d %s", code, msg)
	}
}

// TestUploadPhasesSumToElapsed checks the stage breakdown on upload
// responses: back-to-back stages in order, summing exactly to elapsed_ns.
// Only a durable server appending a new graph has the wal and quorum
// stages; a repeated upload finds the graph registered and skips them.
func TestUploadPhasesSumToElapsed(t *testing.T) {
	durableSrv, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	var text bytes.Buffer
	if err := bicc.WriteGraph(&text, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	repeat := []string{"decode", "fingerprint", "register"}
	for _, tc := range []struct {
		name  string
		ts    *httptest.Server
		first []string
	}{
		{"durable", newHTTPServer(t, durableSrv), []string{"decode", "fingerprint", "wal", "quorum", "register"}},
		{"memory", newHTTPServer(t, New(Config{})), repeat},
	} {
		for i, want := range [][]string{tc.first, repeat} {
			code, out, msg := postRawGraph(t, tc.ts, "format=text", text.Bytes())
			if code != http.StatusOK || out.Existed != (i == 1) {
				t.Fatalf("%s upload %d: %d %s", tc.name, i, code, msg)
			}
			var names []string
			var sum int64
			for _, p := range out.Phases {
				ns, _ := p["ns"].(float64)
				if ns < 0 {
					t.Fatalf("%s upload %d: stage %v took %v ns", tc.name, i, p["name"], ns)
				}
				names = append(names, fmt.Sprint(p["name"]))
				sum += int64(ns)
			}
			if strings.Join(names, ",") != strings.Join(want, ",") {
				t.Fatalf("%s upload %d: stages %v, want %v", tc.name, i, names, want)
			}
			if sum != out.ElapsedNs || sum <= 0 {
				t.Fatalf("%s upload %d: stages sum to %d ns, elapsed_ns %d", tc.name, i, sum, out.ElapsedNs)
			}
		}
	}
}

func TestGraphLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "name=x")

	resp, err := http.Get(ts.URL + "/v1/graphs/" + up.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get graph: %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+up.Fingerprint, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete graph: %d", resp.StatusCode)
	}

	r2, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint})
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("query after delete: %d %s", r2.StatusCode, data)
	}
}

// TestSingleFlight drives 32 concurrent identical queries and asserts the
// engine ran exactly once (acceptance criterion).
func TestSingleFlight(t *testing.T) {
	const clients = 32
	var computations atomic.Int64
	started := make(chan struct{})
	var startOnce sync.Once
	release := make(chan struct{})
	cfg := Config{
		Workers: 4,
		Queue:   clients,
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			computations.Add(1)
			startOnce.Do(func() { close(started) })
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return bicc.BiconnectedComponentsCtx(ctx, g, opt)
		},
	}
	s, ts := newTestServer(t, cfg)
	up := uploadGraph(t, ts, testGraph(t), "")

	var wg sync.WaitGroup
	codes := make([]int, clients)
	comps := make([]int, clients)
	errsCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt"})
			resp, err := http.Post(ts.URL+"/v1/bcc", "application/json", bytes.NewReader(body))
			if err != nil {
				errsCh <- err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var out bccResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errsCh <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			comps[i] = out.NumComponents
		}(i)
	}
	// Hold the computation open until every client has had ample time to
	// arrive and coalesce, then let it finish.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no computation started")
	}
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if comps[i] != 3 {
			t.Fatalf("client %d: num_components = %d, want 3", i, comps[i])
		}
	}
	if n := computations.Load(); n != 1 {
		t.Fatalf("engine ran %d times for %d identical in-flight queries, want exactly 1", n, clients)
	}
	snap := s.Snapshot()
	if snap.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (snapshot %+v)", snap.CacheMisses, snap)
	}
	if snap.Coalesced+snap.CacheHits != clients-1 {
		t.Fatalf("coalesced+hits = %d, want %d (snapshot %+v)",
			snap.Coalesced+snap.CacheHits, clients-1, snap)
	}
}

// TestDeadlineReturnsPromptly uploads a graph big enough that a full run
// takes far longer than 1 ms and asserts a 1 ms-deadline query comes back
// quickly with a context error rather than hanging (acceptance criterion).
func TestDeadlineReturnsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, bigGraph(), "")
	start := time.Now()
	resp, data := postBCC(t, ts, bccRequest{
		Graph:     up.Fingerprint,
		Algorithm: "tv-smp",
		TimeoutMs: 1,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "deadline") {
		t.Fatalf("error does not mention the deadline: %s", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Generous bound: well under any full-size engine run, far over
	// scheduling noise.
	if elapsed > 10*time.Second {
		t.Fatalf("deadline query took %v", elapsed)
	}
}

// TestQueueFullRejects saturates one worker and a one-slot queue with
// distinct queries and asserts the third gets 429 + Retry-After (acceptance
// criterion).
func TestQueueFullRejects(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	cfg := Config{
		Workers: 1,
		Queue:   1,
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			started <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return bicc.BiconnectedComponentsCtx(ctx, g, opt)
		},
	}
	s, ts := newTestServer(t, cfg)
	up := uploadGraph(t, ts, testGraph(t), "")

	// Distinct procs values force distinct cache keys, so the queries cannot
	// coalesce and must each claim admission.
	fire := func(procs int, out chan<- *http.Response) {
		body, _ := json.Marshal(bccRequest{Graph: up.Fingerprint, Procs: procs})
		resp, err := http.Post(ts.URL+"/v1/bcc", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp
	}
	c1 := make(chan *http.Response, 1)
	go fire(1, c1)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached the engine")
	}
	c2 := make(chan *http.Response, 1)
	go fire(2, c2)
	// Wait until the second query is actually parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.admission.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.admission.QueueDepth() == 0 {
		t.Fatal("second query never queued")
	}

	c3 := make(chan *http.Response, 1)
	go fire(3, c3)
	r3 := <-c3
	if r3 == nil {
		t.Fatal("third query transport error")
	}
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third query: status %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(block)
	for _, c := range []chan *http.Response{c1, c2} {
		r := <-c
		if r == nil || r.StatusCode != http.StatusOK {
			t.Fatalf("blocked query finished badly: %+v", r)
		}
	}
	if snap := s.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Rejected)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	up := uploadGraph(t, ts, testGraph(t), "")
	if _, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint}); len(data) == 0 {
		t.Fatal("empty bcc response")
	}
	if _, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "fast-bcc"}); len(data) == 0 {
		t.Fatal("empty fast-bcc response")
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 2 || snap.Computations != 2 || snap.Graphs != 1 {
		t.Fatalf("statsz: %+v", snap)
	}
	if len(snap.Latency) == 0 {
		t.Fatal("statsz has no latency histograms after a computation")
	}
	// Every engine gets its own circuit breaker, present from the first
	// snapshot on; the fast-bcc query above also leaves a latency row.
	for _, e := range engine.Parallel() {
		if _, ok := snap.Breakers[e.Name]; !ok {
			t.Errorf("statsz missing breaker entry for %q", e.Name)
		}
	}
	if _, ok := snap.Latency["fast-bcc"]; !ok {
		t.Error("statsz missing latency histogram for fast-bcc after a fast-bcc query")
	}
	// With the planner off (the zero-value default), /statsz carries no plan
	// section — the pre-planner wire shape, byte for byte.
	if snap.Plan != nil {
		t.Errorf("statsz has a plan section with the planner off: %+v", snap.Plan)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"graph":"nope"}`, http.StatusNotFound},
		{`{"graph":"x","algorithm":"quantum"}`, http.StatusBadRequest},
		{`{"graph":"x","include":["everything"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/bcc", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// Local file loading is off by default.
	resp, err := http.Post(ts.URL+"/v1/graphs/open", "application/json", strings.NewReader(`{"path":"/etc/hosts"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("open with AllowLocalFiles=false: %d, want 403", resp.StatusCode)
	}
}
