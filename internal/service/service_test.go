package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
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
	if hits, runs := s.stats.CacheHits.Load(), s.stats.Computations.Load(); hits != 1 || runs != 1 {
		t.Fatalf("after a hit: %d cache hits, %d computations; want 1 and 1", hits, runs)
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

// allocatedDuring returns how many bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUploadHugeVertexCount: a header declaring two billion vertices used
// to reach the duplicate-edge check, which allocated 8 GB for them and
// killed bccd. Every format, with and without normalize, now answers 400
// naming the count before anything is sized by it, and the server keeps
// serving.
func TestUploadHugeVertexCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var bin bytes.Buffer
	if err := bicc.WriteGraphBinary(&bin, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bin.Bytes()[4:], 2_000_000_000)
	for _, body := range []struct{ format, data string }{
		{"text", "p 2000000000 2\n0 1\n1 2\n"},
		{"dimacs", "p edge 2000000000 2\ne 1 2\ne 2 3\n"},
		{"binary", bin.String()},
	} {
		for _, norm := range []string{"", "&normalize=1"} {
			var code int
			var msg string
			alloc := allocatedDuring(func() {
				code, _, msg = postRawGraph(t, ts, "format="+body.format+norm, []byte(body.data))
			})
			if code != http.StatusBadRequest || !strings.Contains(msg, "2000000000 vertices") {
				t.Fatalf("%s%s: %d %s, want 400 naming the vertex count", body.format, norm, code, msg)
			}
			if alloc >= 64<<20 {
				t.Fatalf("%s%s: the refused upload allocated %d bytes", body.format, norm, alloc)
			}
		}
	}
	var text bytes.Buffer
	if err := bicc.WriteGraph(&text, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	if code, _, msg := postRawGraph(t, ts, "format=text", text.Bytes()); code != http.StatusOK {
		t.Fatalf("upload after the huge vertex counts: %d %s", code, msg)
	}
}

// TestUploadOverBudgetRefused: with a 1 MiB budget, a 19-byte text upload
// declaring 262143 vertices passed the old check at 4 bytes per vertex,
// allocated 2 MB validating its two edges, and evicted every other graph
// to make room for a graph that alone did not fit. The check now charges
// what the registry charges, so the upload answers 400 before anything is
// sized by its counts and the resident graph stays. Every upload allocates
// the text reader's line buffer (1 MiB) before it reads the header; the
// refused one may allocate at most 64 KiB more. A batch that would grow
// the resident graph as far is refused the same way, within 64 KiB.
func TestUploadOverBudgetRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGraphBytes: 1 << 20})
	small := uploadGraph(t, ts, testGraph(t), "")
	// Refused requests change nothing, so each is sent three times and the
	// least reading counts: other goroutines allocate in the window too.
	leastAlloc := func(send func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			least = min(least, allocatedDuring(send))
		}
		return least
	}
	var code int
	var msg string
	alloc := leastAlloc(func() {
		code, _, msg = postRawGraph(t, ts, "format=text", []byte("p 262143 2\n0 1\n1 2\n"))
	})
	if code != http.StatusBadRequest || !strings.Contains(msg, "262143 vertices") {
		t.Fatalf("over-budget upload: %d %s, want 400 naming the vertex count", code, msg)
	}
	if alloc >= 1<<20+64<<10 {
		t.Fatalf("the refused upload allocated %d bytes", alloc)
	}
	if _, ok := getGraphInfo(t, ts, small.Fingerprint); !ok {
		t.Fatal("the refused upload evicted the resident graph")
	}
	var data []byte
	mustMutate(t, ts, small.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 4}}) // seeds the state
	alloc = leastAlloc(func() {
		_, code, data = postMutate(t, ts, small.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 262142}})
	})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "262143 vertices") {
		t.Fatalf("over-budget batch: %d %s, want 400 naming the vertex count", code, data)
	}
	if alloc >= 64<<10 {
		t.Fatalf("the refused batch allocated %d bytes", alloc)
	}
	if info, ok := getGraphInfo(t, ts, small.Fingerprint); !ok || info.Generation != 1 {
		t.Fatalf("after the refused batch: %+v ok=%v", info, ok)
	}
}

// TestSparseUploadAllocatesNoPerWorkerArrays: an upload converts its CSR
// when it arrives, and the parallel conversion used to allocate p degree
// histograms over the declared vertices from 4096 edges up (8 MB at p=2
// for a million vertices) whatever the edge count. Under the default
// budget, uploads of 2 and of 5000 edges declaring a million vertices now
// allocate at most the graph's resident bytes, one cursor array over the
// vertices (the duplicate check's stamps) and 256 KiB, beyond the text
// reader's 1 MiB buffer. Each upload is sent three times and the least
// reading counts, as in TestUploadOverBudgetRefused.
func TestSparseUploadAllocatesNoPerWorkerArrays(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 1_000_000
	for _, m := range []int{2, 5000} {
		var body bytes.Buffer
		fmt.Fprintf(&body, "p %d %d\n", n, m)
		for i := 0; i < m; i++ {
			fmt.Fprintf(&body, "%d %d\n", 2*i, 2*i+1)
		}
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			least = min(least, allocatedDuring(func() {
				if code, _, msg := postRawGraph(t, ts, "format=text", body.Bytes()); code != http.StatusOK {
					t.Fatalf("m=%d: %d %s", m, code, msg)
				}
			}))
		}
		bound := uint64(1<<20 + graph.ResidentBytes(n, int64(m)) + 4*(n+1) + 256<<10)
		if least > bound {
			t.Fatalf("m=%d: an upload of %d vertices allocated %d bytes, over %d", m, n, least, bound)
		}
	}
}

// TestQueryProcsCapped: a query asking for two billion workers used to
// start a goroutine per worker on the only admission worker and never
// answer, starving every later query. /v1/bcc and the per-block endpoints
// now answer 400 past maxProcs, at once, and the next query is served.
func TestQueryProcsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cycle, err := bicc.NewGraph(4, []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fp := uploadGraph(t, ts, cycle, "").Fingerprint
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/bcc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	code, msg := post(fmt.Sprintf(`{"graph": %q, "algorithm": "tv-smp", "procs": 2000000000}`, fp))
	if code != http.StatusBadRequest || !strings.Contains(msg, "procs 2000000000 exceeds the limit of 1024") {
		t.Fatalf("procs 2000000000: %d %s, want 400", code, msg)
	}
	if code := getJSON(t, ts.URL+"/v1/vertex/0/blocks?graph="+fp+"&procs=2000000000", nil); code != http.StatusBadRequest {
		t.Fatalf("per-block procs 2000000000: status %d, want 400", code)
	}
	if code, msg := post(fmt.Sprintf(`{"graph": %q, "algorithm": "sequential"}`, fp)); code != http.StatusOK {
		t.Fatalf("sequential query after the refused one: %d %s", code, msg)
	}
	if code, msg := post(fmt.Sprintf(`{"graph": %q, "algorithm": "sequential", "procs": %d}`, fp, maxProcs)); code != http.StatusOK {
		t.Fatalf("procs at the cap: %d %s", code, msg)
	}
}

// TestUploadPhasesSumToElapsed checks the stage breakdown on upload
// responses: back-to-back stages in order, summing exactly to elapsed_ns.
// Every upload checks its graph by building the CSR (to-csr). Only a
// durable server appending a new graph has the wal and quorum stages, the
// standby wait after the registry change; a repeated upload finds the
// graph registered and skips them.
func TestUploadPhasesSumToElapsed(t *testing.T) {
	durableSrv, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	var text bytes.Buffer
	if err := bicc.WriteGraph(&text, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	repeat := []string{"decode", "to-csr", "fingerprint", "register"}
	for _, tc := range []struct {
		name  string
		ts    *httptest.Server
		first []string
	}{
		{"durable", newHTTPServer(t, durableSrv), []string{"decode", "to-csr", "fingerprint", "wal", "register", "quorum"}},
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
	if n := s.stats.CacheMisses.Load(); n != 1 {
		t.Fatalf("cache misses = %d, want 1", n)
	}
	if n := s.stats.Coalesced.Load() + s.stats.CacheHits.Load(); n != clients-1 {
		t.Fatalf("coalesced+hits = %d, want %d", n, clients-1)
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
	if n := s.stats.Rejected.Load(); n != 1 {
		t.Fatalf("rejected = %d, want 1", n)
	}
}

// TestHealthzAndStatsz checks that /healthz reports every parallel
// engine's breaker and none for auto, that /statsz is gone, and that
// /metrics carries what it reported: request and computation counts,
// resident graphs, a latency histogram per executing engine, and the
// planner's decision counters.
func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, hz := getHealthz(t, ts)
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, hz)
	}
	breakers, _ := hz["breakers"].(map[string]any)
	for _, e := range engine.Parallel() {
		if breakers[e.Name] != "closed" {
			t.Errorf("healthz breaker for %q = %v, want closed", e.Name, breakers[e.Name])
		}
	}
	up := uploadGraph(t, ts, testGraph(t), "")
	if _, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint}); len(data) == 0 {
		t.Fatal("empty bcc response")
	}
	if _, data := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "fast-bcc"}); len(data) == 0 {
		t.Fatal("empty fast-bcc response")
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/statsz answered %d, want 404", resp.StatusCode)
	}
	metrics := scrapeHTTP(t, ts)
	for _, series := range []string{
		"bicc_requests_total 2",
		"bicc_computations_total 2",
		"bicc_graphs 1",
		`bicc_request_seconds_count{algorithm="fast-bcc"} 1`,
	} {
		if !strings.Contains(metrics, series+"\n") {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// The auto query was planned: each planner family appears once, and
	// the decision is counted once by engine and once by procs.
	for _, family := range []string{"bicc_plan_decisions_total", "bicc_plan_procs_total", "bicc_plan_fallbacks_total"} {
		if n := strings.Count(metrics, "# TYPE "+family+" counter\n"); n != 1 {
			t.Errorf("/metrics has %d %s families, want 1", n, family)
		}
	}
	for _, family := range []string{"bicc_plan_decisions_total{", "bicc_plan_procs_total{"} {
		var series []string
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, family) {
				series = append(series, line)
			}
		}
		if len(series) != 1 || !strings.HasSuffix(series[0], "} 1") {
			t.Errorf("%s series %q, want one counting 1", family, series)
		}
	}
	// Auto has no breaker: it resolves to an engine before any breaker is
	// consulted.
	if _, ok := breakers["auto"]; ok {
		t.Error("/healthz reports a breaker for auto")
	}
	if strings.Contains(metrics, `algorithm="auto"`) {
		t.Error("/metrics has an auto breaker series")
	}
}

// getHealthz fetches /healthz and returns its status code and decoded body.
func getHealthz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// seriesValue returns the value of the series named exactly name, labels
// included, in an exposition, and whether the series is there.
func seriesValue(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// scrapeHTTP returns ts's /metrics exposition.
func scrapeHTTP(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
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
