package service

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	snap := s2.Snapshot()
	if snap.Durability == nil || snap.Durability.RecoveredGraphs != 1 {
		t.Fatalf("statsz durability section: %+v", snap.Durability)
	}
	if snap.Durability.RecoverySeconds <= 0 {
		t.Fatal("recovery_seconds not reported")
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
	// Without EnableDurability, /statsz must not contain a durability key:
	// the feature off is byte-compatible with builds that predate it.
	s, _ := newTestServer(t, Config{})
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "durability") {
		t.Fatalf("statsz leaks durability when disabled: %s", b)
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
	if n := s2.Snapshot().Computations; n != 1 {
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
	src := filepath.Join("testdata", "spill-era-datadir")
	if err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(dir, "spill")
	snapshotDir := func() map[string]string {
		t.Helper()
		entries, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(spill, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	spillBefore := snapshotDir()
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
	if !reflect.DeepEqual(snapshotDir(), spillBefore) {
		t.Fatal("spill/ changed under a build that no longer reads it")
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
