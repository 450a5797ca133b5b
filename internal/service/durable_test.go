package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"bicc"
	"bicc/internal/durable"
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

func TestDurableCacheSpillsAndPromotes(t *testing.T) {
	dir := t.TempDir()
	// One-entry cache: the second distinct query demotes the first result
	// to disk; re-querying the first must come back from the spill tier
	// without a new computation.
	s, _ := durableServer(t, Config{CacheEntries: 1}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")
	g2, _ := bicc.RandomConnectedGraph(40, 80, 9)
	up2 := uploadGraph(t, ts, g2, "")

	postOK := func(fp, algo string) bccResponse {
		t.Helper()
		resp, data := postBCC(t, ts, bccRequest{Graph: fp, Algorithm: algo})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := postOK(up.Fingerprint, "tv-opt")
	postOK(up2.Fingerprint, "tv-opt") // evicts → demotes the first result
	d := s.dur.Load()
	if d.spill.Writes() == 0 {
		t.Fatal("eviction did not demote to the spill tier")
	}
	again := postOK(up.Fingerprint, "tv-opt")
	if d.spill.Hits() == 0 {
		t.Fatal("re-query did not promote from the spill tier")
	}
	if !again.Cached {
		t.Fatal("promoted result not reported as cached")
	}
	if again.NumComponents != first.NumComponents || again.NumArticulation != first.NumArticulation {
		t.Fatalf("promoted result differs: %+v vs %+v", again, first)
	}
	if comps := s.Snapshot().Computations; comps != 2 {
		t.Fatalf("computations = %d, want 2 (promotion must not recompute)", comps)
	}

	// Spilled results survive restart and are re-verified at boot.
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rep := durableServer(t, Config{CacheEntries: 1}, DurabilityConfig{Dir: dir})
	if rep.SpilledResults == 0 {
		t.Fatalf("no spilled results recovered: %+v", rep)
	}
	if rep.VerifiedResults == 0 || rep.VerifyFailures != 0 {
		t.Fatalf("boot verification: %+v", rep)
	}
	_ = s2
}

func TestDurableBootDropsCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{CacheEntries: 1}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")
	g2, _ := bicc.RandomConnectedGraph(40, 80, 9)
	up2 := uploadGraph(t, ts, g2, "")
	for _, fp := range []string{up.Fingerprint, up2.Fingerprint} {
		if resp, data := postBCC(t, ts, bccRequest{Graph: fp, Algorithm: "tv-opt"}); resp.StatusCode != 200 {
			t.Fatalf("%s", data)
		}
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if n := corruptSpillDir(t, filepath.Join(dir, "spill")); n == 0 {
		t.Fatal("no spilled record with multiple components to corrupt")
	}

	_, rep := durableServer(t, Config{}, DurabilityConfig{Dir: dir, VerifySample: 10})
	if rep.VerifyFailures == 0 {
		t.Fatalf("boot verification missed corrupted labels: %+v", rep)
	}
}

// corruptSpillDir swaps two differing labels inside every spilled record
// that has them, rewriting through the codec so the CRC is computed over
// the damaged bytes too — only semantic re-verification can catch it.
// Returns how many records were corrupted.
func corruptSpillDir(t *testing.T, dir string) int {
	t.Helper()
	sp, keys, err := durable.OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, key := range keys {
		rec, ok := sp.Get(key)
		if !ok {
			continue
		}
		swapped := false
		for i := 1; i < len(rec.EdgeComponent); i++ {
			if rec.EdgeComponent[i] != rec.EdgeComponent[0] {
				rec.EdgeComponent[0], rec.EdgeComponent[i] = rec.EdgeComponent[i], rec.EdgeComponent[0]
				swapped = true
				break
			}
		}
		if !swapped {
			continue
		}
		if err := sp.Put(rec); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
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
