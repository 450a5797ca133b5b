package service

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bicc"
)

// durableServer builds a server wired to dir, failing the test on error.
func durableServer(t *testing.T, cfg Config, dcfg DurabilityConfig) (*Server, *RecoveryReport) {
	t.Helper()
	s := New(cfg)
	rep, err := s.EnableDurability(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.CloseDurability() })
	return s, rep
}

func TestDurableUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 0 || rep.Truncations != 0 {
		t.Fatalf("fresh dir recovery: %+v", rep)
	}
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "name=demo")
	g2, _ := bicc.RandomConnectedGraph(30, 60, 3)
	up2 := uploadGraph(t, ts, g2, "name=other")

	// Delete the second graph; the delete must be durable too.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+up2.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	// A new server over the same dir recovers exactly the surviving graph.
	s2, rep2 := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep2.Graphs != 1 || rep2.Truncations != 0 || rep2.DroppedGraphs != 0 {
		t.Fatalf("recovery after clean close: %+v", rep2)
	}
	if _, ok := s2.registry.Get(up.Fingerprint); !ok {
		t.Fatal("uploaded graph not recovered")
	}
	if _, ok := s2.registry.Get(up2.Fingerprint); ok {
		t.Fatal("deleted graph resurrected")
	}
	if d := s2.dur.Load(); d.recoveredGraphs != 1 || d.recoverySeconds <= 0 {
		t.Fatalf("recovery gauges: %d graphs in %vs, want 1 graph in > 0s", d.recoveredGraphs, d.recoverySeconds)
	}
}

// TestDurableDuplicateEdgeUploadNotLost: a graph with a parallel edge used
// to be acknowledged without normalize=1 and then dropped by the WAL
// decoder at the next boot (Graphs 0, DroppedRecords 1). Now it is refused
// before the WAL, and its normalized upload survives a restart.
func TestDurableDuplicateEdgeUploadNotLost(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	body := []byte("p 3 3\n0 1\n0 1\n1 2\n")
	if code, _, msg := postRawGraph(t, ts, "format=text", body); code != http.StatusBadRequest {
		t.Fatalf("upload with a duplicate edge: %d %s", code, msg)
	}
	code, up, msg := postRawGraph(t, ts, "format=text&normalize=1", body)
	if code != http.StatusOK {
		t.Fatalf("normalized upload: %d %s", code, msg)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 1 || rep.DroppedRecords != 0 {
		t.Fatalf("recovery: %+v", rep)
	}
	if _, ok := s2.registry.Get(up.Fingerprint); !ok {
		t.Fatal("acknowledged graph not recovered")
	}
}

// newHTTPServer is newTestServer for a server constructed by the caller.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestDurabilityOffIsInvisible(t *testing.T) {
	// Without EnableDurability, /metrics has no durable series and /healthz
	// no durable keys: the feature off is invisible.
	_, ts := newTestServer(t, Config{})
	if m := scrapeHTTP(t, ts); strings.Contains(m, "bicc_wal_") || strings.Contains(m, "bicc_scrub_") || strings.Contains(m, "bicc_recover") {
		t.Fatalf("/metrics leaks durability when disabled:\n%s", m)
	}
	if _, hz := getHealthz(t, ts); hz["damaged"] != nil {
		t.Fatalf("healthz leaks durability when disabled: %v", hz)
	}
}

// restartVolatile are the response fields a restart may change: the cache
// flag and the timings of the run that produced the answer.
var restartVolatile = []string{"cached", "elapsed_ns", "phases", "trace"}

// TestDurableRestartRecomputesResults: graphs are the only durable state.
// A result computed before a restart costs the new server one engine run,
// and its answer is byte-identical apart from the cache and timing fields.
func TestDurableRestartRecomputesResults(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")
	req := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt",
		Include: []string{"articulation", "bridges", "components", "blockcut"}}
	answer := func(ts *httptest.Server) string {
		t.Helper()
		resp, data := postBCC(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return dropKeys(t, data, restartVolatile...)
	}
	before := answer(ts)
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if after := answer(newHTTPServer(t, s2)); after != before {
		t.Fatalf("answer changed across restart:\n%s\n%s", before, after)
	}
	if n := s2.stats.Computations.Load(); n != 1 {
		t.Fatalf("computations after restart = %d, want 1", n)
	}
}

// TestDurableBootIgnoresSpillDirectory boots on a data directory written
// by a build that still spilled results: testdata/spill-era-datadir holds
// its WAL (three graphs, one mutated once) and the spill/ records of nine
// results, and spill-era-answers.json the answers that build served. Every
// graph must be recovered, every answer must be byte-identical apart from
// the cache, timing and serving-path fields, and spill/ must be left as it
// was.
func TestDurableBootIgnoresSpillDirectory(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "spill-era-datadir"), dir)
	spill := filepath.Join(dir, "spill")
	spillBefore := readTree(t, spill)
	if len(spillBefore) != 9 {
		t.Fatalf("fixture holds %d spill records, want 9", len(spillBefore))
	}

	s, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 3 || rep.DroppedGraphs != 0 || rep.DroppedRecords != 0 || rep.Truncations != 0 {
		t.Fatalf("recovery: %+v, want 3 graphs and no repair", rep)
	}
	ts := newHTTPServer(t, s)
	raw, err := os.ReadFile(filepath.Join("testdata", "spill-era-answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Request bccRequest      `json:"request"`
		Answer  json.RawMessage `json:"answer"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 9 {
		t.Fatalf("fixture holds %d answers, want 9", len(want))
	}
	// The old build served the mutated graph from its maintained labels,
	// which the "incr" flag reports; a fresh boot has none and runs the
	// engine for the same bytes.
	volatile := append([]string{"incr"}, restartVolatile...)
	for _, w := range want {
		resp, data := postBCC(t, ts, w.Request)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", w.Request.Graph, w.Request.Algorithm, resp.StatusCode, data)
		}
		got, exp := dropKeys(t, data, volatile...), dropKeys(t, w.Answer, volatile...)
		if got != exp {
			t.Fatalf("%s/%s: answer differs from the one served before the upgrade:\n got  %s\n want %s",
				w.Request.Graph, w.Request.Algorithm, got, exp)
		}
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, spill), spillBefore) {
		t.Fatal("spill/ changed under a build that no longer reads it")
	}
}

// copyTree copies the directory tree src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
}

// readTree returns every file under dir, by relative path, with its bytes.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	if err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDurableBootIgnoresQuarantineDirectory boots on a data directory
// written by a build that quarantined damaged files:
// testdata/quarantine-era-datadir holds the snapshot and WAL that build
// left after a later compaction (three graphs, one mutated once) and the
// damaged snapshot it had moved to quarantine/, which made that build's
// /healthz answer 503 on every boot. Every graph must be recovered,
// /healthz must answer 200, a scrub cycle must find nothing, and the
// directory must be left byte-identical.
func TestDurableBootIgnoresQuarantineDirectory(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "quarantine-era-datadir"), dir)
	before := readTree(t, dir)
	if _, ok := before[filepath.Join("quarantine", "snap-00000002.bin")]; !ok || len(before) != 3 {
		t.Fatalf("fixture files = %d, want the snapshot, the WAL and one quarantined snapshot", len(before))
	}

	s, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 3 || rep.DroppedGraphs != 0 || rep.DroppedRecords != 0 || rep.Truncations != 0 {
		t.Fatalf("recovery: %+v, want 3 graphs and no repair", rep)
	}
	for fp, gen := range map[string]uint64{"9a864f971efb1963": 0, "27d0b91e82fa96ea": 0, "ad2b783c32c07534": 1} {
		info, ok := s.registry.Get(fp)
		if !ok || info.Generation != gen {
			t.Fatalf("graph %s: recovered %v at generation %d, want generation %d", fp, ok, info.Generation, gen)
		}
	}
	ts := newHTTPServer(t, s)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", code)
	}
	if rep := s.dur.Load().store.Scrub(0); rep.Listed != 2 || rep.Corrupt != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("scrub of the old data directory = %+v, want its 2 files clean", rep)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, dir), before) {
		t.Fatal("the data directory changed under a build that only reads it")
	}
}

func TestDurableRegistryEvictionIsLogged(t *testing.T) {
	dir := t.TempDir()
	g1, _ := bicc.RandomConnectedGraph(100, 300, 1)
	g2, _ := bicc.RandomConnectedGraph(100, 300, 2)
	// Budget for roughly one graph: adding the second evicts the first,
	// and the eviction must reach the WAL so recovery matches the
	// registry.
	s, _ := durableServer(t, Config{MaxGraphBytes: graphBytes(g1) + 100},
		DurabilityConfig{Dir: dir})
	fp1, _, err := s.AddGraph("one", g1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, _, err := s.AddGraph("two", g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.registry.Get(fp1); ok {
		t.Fatal("first graph not evicted")
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rep.Graphs != 1 {
		t.Fatalf("recovered %d graphs, want 1", rep.Graphs)
	}
	if _, ok := s2.registry.Get(fp1); ok {
		t.Fatal("evicted graph resurrected at recovery")
	}
	if _, ok := s2.registry.Get(fp2); !ok {
		t.Fatal("surviving graph missing after recovery")
	}
}

func TestMaxBodyBytes413(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	_ = s
	// Oversize upload: well-formed so the parser runs into the byte cap
	// rather than a syntax error.
	big := "p 7 300\n" + strings.Repeat("0 1\n", 300)
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload over cap: status %d, want 413", resp.StatusCode)
	}
	// A cap landing mid-line truncates a record: the parser sees a syntax
	// error, but the response must still be 413, not 400.
	_, ts2 := newTestServer(t, Config{MaxBodyBytes: 125})
	resp, err = http.Post(ts2.URL+"/v1/graphs", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("mid-line truncation: status %d, want 413", resp.StatusCode)
	}
	// Oversize query body.
	body := `{"graph": "` + strings.Repeat("f", 300) + `"}`
	resp, err = http.Post(ts.URL+"/v1/bcc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("query over cap: status %d, want 413", resp.StatusCode)
	}
	// Oversize mutation batch: the cap is checked before the graph lookup.
	batch := `{"deltas":[` + strings.Repeat(`{"op":"insert","u":0,"v":1},`, 20) + `{"op":"insert","u":0,"v":1}]}`
	resp, err = http.Post(ts.URL+"/v1/graphs/"+strings.Repeat("f", 16)+"/edges", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("mutation batch over cap: status %d, want 413", resp.StatusCode)
	}
}

// TestDurableChurnRecoversLiveSet races uploads and deletes of three
// graphs from four goroutines on a durable server whose budget holds two
// and a half of them, so uploads evict. After every round a restart from
// the data dir must recover exactly what the live registry held, and every
// upload answered 200 names its graph's fingerprint.
func TestDurableChurnRecoversLiveSet(t *testing.T) {
	const rounds, workers, ops = 100, 4, 6
	var bodies [][]byte
	var fps []string
	var size int64
	for i := 0; i < 3; i++ {
		// Equal sizes: an 8-cycle with one chord from vertex 0.
		edges := []bicc.Edge{{U: 0, V: int32(i + 2)}}
		for v := 0; v < 8; v++ {
			edges = append(edges, bicc.Edge{U: int32(v), V: int32((v + 1) % 8)})
		}
		g := mkGraph(t, 8, edges)
		var buf bytes.Buffer
		if err := bicc.WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		bodies, fps, size = append(bodies, buf.Bytes()), append(fps, Fingerprint(g)), graphBytes(g)
	}
	cfg := Config{MaxGraphBytes: size * 5 / 2}
	dir := t.TempDir()
	var live []string
	var evicted int64
	for round := 0; round < rounds; round++ {
		s := New(cfg)
		if _, err := s.EnableDurability(DurabilityConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		if got := registrySet(s); !reflect.DeepEqual(got, live) {
			t.Fatalf("round %d: restart recovered %v, the live registry held %v", round, got, live)
		}
		h := s.Handler()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for op := 0; op < ops; op++ {
					i := rng.Intn(len(fps))
					rec := httptest.NewRecorder()
					if rng.Intn(3) == 0 {
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/graphs/"+fps[i], nil))
						continue
					}
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(bodies[i])))
					var up graphUploadResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &up); rec.Code != http.StatusOK || err != nil || up.Fingerprint != fps[i] {
						t.Errorf("round %d: upload answered %d naming %q, want 200 naming %s", round, rec.Code, up.Fingerprint, fps[i])
					}
				}
			}(rand.New(rand.NewSource(int64(round*workers + w + 1))))
		}
		wg.Wait()
		live = registrySet(s)
		evicted += s.registry.Evicted()
		if err := s.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
	if evicted == 0 {
		t.Fatal("the churn never evicted")
	}
}
