package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bicc"
	"bicc/internal/scrub"
)

// scrubLog is a concurrency-safe Logf sink for asserting repair sources.
type scrubLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *scrubLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *scrubLog) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

// flipByte damages one on-disk artifact in place, past the codec's 6-byte
// file header so the frame CRC (not the magic check) is what must catch it.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(b) {
		t.Fatalf("flip offset %d past end of %d-byte %s", off, len(b), path)
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseDurableKey(t *testing.T) {
	for _, k := range []resultKey{
		{fp: "aabbccdd", algo: bicc.TVSMP, procs: 4},
		{fp: "aabbccdd", gen: 3, algo: bicc.TVOpt, procs: 16},
		{fp: "ff00", gen: 12, algo: bicc.FastBCC, procs: 1},
		{fp: "ee", algo: bicc.Sequential, procs: 0},
	} {
		got, ok := parseDurableKey(k.durableKey())
		if !ok || got != k {
			t.Errorf("parseDurableKey(%q) = %+v, %v; want %+v", k.durableKey(), got, ok, k)
		}
	}
	for _, bad := range []string{"", "nodash", "stray-key", "fp-", "-tv-smp-4",
		"fp-bogus-4", "fp-tv-smp-x", "fp@x-tv-smp-4", "fp-tv-smp--1"} {
		if k, ok := parseDurableKey(bad); ok {
			t.Errorf("parseDurableKey(%q) accepted as %+v", bad, k)
		}
	}
}

func TestScrubRequiresDurability(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.EnableScrub(ScrubConfig{}); err == nil {
		t.Fatal("EnableScrub without durability must fail")
	}
	if _, err := s.RunScrub(); err == nil {
		t.Fatal("RunScrub without EnableScrub must fail")
	}
	resp, err := http.Post(ts.URL+"/v1/admin/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("admin scrub without the subsystem: status %d, want 409", resp.StatusCode)
	}

	dir := t.TempDir()
	s2, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if err := s2.EnableScrub(ScrubConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.CloseScrub)
	if err := s2.EnableScrub(ScrubConfig{}); err == nil {
		t.Fatal("second EnableScrub must fail")
	}
}

// TestScrubSpillRepairLadder damages two spilled results — one whose entry
// is still resident in the memory cache, one that only lives on disk — and
// proves the scrubber heals the first from the cache and the second by
// recomputing through the engine trunk, leaving both queryable with the
// original answers.
func TestScrubSpillRepairLadder(t *testing.T) {
	dir := t.TempDir()
	lg := &scrubLog{}
	s, _ := durableServer(t, Config{CacheEntries: 1}, DurabilityConfig{Dir: dir})
	if err := s.EnableScrub(ScrubConfig{Logf: lg.logf}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseScrub)
	ts := newHTTPServer(t, s)

	up1 := uploadGraph(t, ts, testGraph(t), "")
	g2, _ := bicc.RandomConnectedGraph(40, 80, 9)
	up2 := uploadGraph(t, ts, g2, "")
	postOK := func(fp string) bccResponse {
		t.Helper()
		resp, data := postBCC(t, ts, bccRequest{Graph: fp, Algorithm: "tv-opt"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want1 := postOK(up1.Fingerprint) // resident
	want2 := postOK(up2.Fingerprint) // demotes 1 to disk
	postOK(up1.Fingerprint)          // promotes 1 back; demotes 2 to disk
	// Now: both spilled on disk; graph 1 also resident in the memory cache.

	d := s.dur.Load()
	keys := d.spill.Keys()
	if len(keys) != 2 {
		t.Fatalf("spill keys = %v, want 2", keys)
	}
	for _, k := range keys {
		flipByte(t, d.spill.Path(k), 20)
	}

	rep, err := s.RunScrub()
	if err != nil {
		t.Fatal(err)
	}
	tr := scrubTier(t, rep, "spill")
	if tr.Corrupt != 2 || tr.Repaired != 2 || tr.Quarantined != 0 {
		t.Fatalf("spill tier after damage = %+v, want 2 corrupt, 2 repaired", tr)
	}
	if !lg.contains("repaired from cache") {
		t.Fatalf("resident record not healed from the cache rung; log: %v", lg.lines)
	}
	if !lg.contains("repaired from recompute") {
		t.Fatalf("disk-only record not healed by recompute; log: %v", lg.lines)
	}

	// The healed files verify clean on the next cycle...
	rep, _ = s.RunScrub()
	if rep.Corrupt != 0 {
		t.Fatalf("second cycle still corrupt: %+v", rep)
	}
	// ...and both results serve the original answers.
	got1, got2 := postOK(up1.Fingerprint), postOK(up2.Fingerprint)
	if got1.NumComponents != want1.NumComponents || got1.NumArticulation != want1.NumArticulation {
		t.Fatalf("graph 1 answer changed: %+v vs %+v", got1, want1)
	}
	if got2.NumComponents != want2.NumComponents || got2.NumArticulation != want2.NumArticulation {
		t.Fatalf("graph 2 answer changed: %+v vs %+v", got2, want2)
	}
}

// TestIncludeViewsDerivedOnCacheHit pins that the include views a query
// asks for never depend on which query populated the cache: the result
// cache is keyed without the include set, so a hit created by an
// include-free query (or by a scrub recompute, which asks for nothing) must
// still serve articulation/bridges/blockcut lists, derived on the fly from
// the persisted labeling.
func TestIncludeViewsDerivedOnCacheHit(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{CacheEntries: 1}, DurabilityConfig{Dir: dir})
	if err := s.EnableScrub(ScrubConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseScrub)
	ts := newHTTPServer(t, s)

	up := uploadGraph(t, ts, testGraph(t), "")
	full := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt",
		Include: []string{"articulation", "bridges", "components", "blockcut"}}
	ask := func(req bccRequest) bccResponse {
		t.Helper()
		resp, data := postBCC(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out bccResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := ask(full) // miss: views computed alongside the engine run
	if want.Cached || len(want.ArticulationPoints) == 0 || want.BlockCut == nil {
		t.Fatalf("baseline response unusable: %+v", want)
	}
	assertViews := func(got bccResponse, when string) {
		t.Helper()
		if fmt.Sprint(got.ArticulationPoints) != fmt.Sprint(want.ArticulationPoints) ||
			fmt.Sprint(got.Bridges) != fmt.Sprint(want.Bridges) ||
			len(got.Components) != len(want.Components) ||
			got.BlockCut == nil || got.BlockCut.NumBlocks != want.BlockCut.NumBlocks {
			t.Fatalf("%s: derived views differ from computed ones: %+v vs %+v", when, got, want)
		}
	}

	// Hit on the entry the include-ful miss created.
	assertViews(ask(full), "plain cache hit")

	// Replace the entry with one created by a scrub recompute: corrupt the
	// spilled record, evict the resident entry by querying another graph,
	// and let the repair ladder rebuild it include-free.
	g2, _ := bicc.RandomConnectedGraph(40, 80, 9)
	up2 := uploadGraph(t, ts, g2, "")
	ask(bccRequest{Graph: up2.Fingerprint, Algorithm: "tv-opt"}) // demotes graph 1
	d := s.dur.Load()
	for _, k := range d.spill.Keys() {
		if strings.HasPrefix(k, up.Fingerprint) {
			flipByte(t, d.spill.Path(k), 20)
		}
	}
	rep, err := s.RunScrub()
	if err != nil {
		t.Fatal(err)
	}
	if tr := scrubTier(t, rep, "spill"); tr.Repaired != 1 {
		t.Fatalf("spill tier = %+v, want 1 repaired", tr)
	}
	assertViews(ask(full), "after scrub recompute")
}

// scrubTier plucks one tier's report out of a cycle report.
func scrubTier(t *testing.T, rep *scrub.Report, name string) scrub.TierReport {
	t.Helper()
	for _, tr := range rep.Tiers {
		if tr.Tier == name {
			return tr
		}
	}
	t.Fatalf("tier %q missing from report %+v", name, rep)
	return scrub.TierReport{}
}

// TestScrubWALRepairByCompaction flips a byte inside the active WAL and
// proves the scrubber heals it by compacting the authoritative in-memory
// state into a fresh generation — after which a cold restart recovers every
// graph.
func TestScrubWALRepairByCompaction(t *testing.T) {
	dir := t.TempDir()
	lg := &scrubLog{}
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if err := s.EnableScrub(ScrubConfig{Logf: lg.logf}); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	uploadGraph(t, ts, testGraph(t), "")
	g2, _ := bicc.RandomConnectedGraph(30, 60, 3)
	uploadGraph(t, ts, g2, "")

	d := s.dur.Load()
	var walPath string
	for _, f := range d.store.ScrubFiles() {
		if !f.Snapshot {
			walPath = f.Path
		}
	}
	flipByte(t, walPath, 10)

	rep, err := s.RunScrub()
	if err != nil {
		t.Fatal(err)
	}
	tr := scrubTier(t, rep, "wal")
	if tr.Corrupt != 1 || tr.Repaired != 1 {
		t.Fatalf("wal tier = %+v, want 1 corrupt, 1 repaired", tr)
	}
	if !lg.contains("repaired from compact") {
		t.Fatalf("WAL not healed by compaction; log: %v", lg.lines)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("damaged WAL segment still on disk after repair")
	}
	rep, _ = s.RunScrub()
	if rep.Corrupt != 0 {
		t.Fatalf("post-repair cycle still corrupt: %+v", rep)
	}

	s.CloseScrub()
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	_, rec := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rec.Graphs != 2 || rec.Truncations != 0 {
		t.Fatalf("recovery after WAL repair: %+v, want both graphs, no truncations", rec)
	}
}

// TestScrubQuarantineAndHealthz drops an unparseable garbage artifact into
// the spill directory: nothing can repair it, so the scrubber must move it
// to quarantine, flip /healthz to 503, surface it on /statsz, and keep
// reporting it after a restart.
func TestScrubQuarantineAndHealthz(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if err := s.EnableScrub(ScrubConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	uploadGraph(t, ts, testGraph(t), "")

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz before damage: %d", code)
	}

	d := s.dur.Load()
	stray := d.spill.Path("stray-key")
	if err := os.WriteFile(stray, []byte("not a result frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunScrub()
	if err != nil {
		t.Fatal(err)
	}
	tr := scrubTier(t, rep, "spill")
	if tr.Corrupt != 1 || tr.Repaired != 0 || tr.Quarantined != 1 {
		t.Fatalf("spill tier = %+v, want 1 corrupt quarantined", tr)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("quarantined artifact still in the spill directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(stray))); err != nil {
		t.Fatalf("artifact not in the quarantine directory: %v", err)
	}

	var hz struct {
		Status      string   `json:"status"`
		Quarantined []string `json:"quarantined"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "unhealthy" {
		t.Fatalf("healthz after quarantine: %d %q, want 503 unhealthy", resp.StatusCode, hz.Status)
	}
	if len(hz.Quarantined) != 1 {
		t.Fatalf("healthz quarantined = %v", hz.Quarantined)
	}
	snap := s.Snapshot()
	if snap.Scrub == nil || snap.Scrub.Quarantined != 1 || len(snap.Scrub.QuarantineFiles) != 1 {
		t.Fatalf("statsz scrub section: %+v", snap.Scrub)
	}

	// Quarantine is sticky across restarts: a fresh server over the same dir
	// reports it until an operator clears the directory.
	s.CloseScrub()
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if err := s2.EnableScrub(ScrubConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.CloseScrub)
	ts2 := newHTTPServer(t, s2)
	if code := getJSON(t, ts2.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after restart: %d, want 503 (quarantine persisted)", code)
	}
}

// TestHealthzVerifyFailures pins the boot-verification readiness contract:
// any spilled result dropped by re-verification at recovery flips /healthz
// until the operator (or a scrub repair) resolves it.
func TestHealthzVerifyFailures(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz clean: %d", code)
	}
	s.dur.Load().verifyFailures.Store(2)
	var hz struct {
		Status         string `json:"status"`
		VerifyFailures int64  `json:"verify_failures"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.VerifyFailures != 2 {
		t.Fatalf("healthz with verify failures: %d %+v, want 503 with the count", resp.StatusCode, hz)
	}
}

// TestAdminScrubEndpoint runs a cycle through POST /v1/admin/scrub and
// checks the report shape on the wire.
func TestAdminScrubEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if err := s.EnableScrub(ScrubConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseScrub)
	ts := newHTTPServer(t, s)
	uploadGraph(t, ts, testGraph(t), "")

	resp, err := http.Post(ts.URL+"/v1/admin/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin scrub: status %d", resp.StatusCode)
	}
	var rep struct {
		Checked int `json:"checked"`
		Tiers   []struct {
			Tier string `json:"tier"`
		} `json:"tiers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 || fmt.Sprint(rep.Tiers) != "[{wal} {spill} {ring}]" {
		t.Fatalf("wire report = %+v, want the wal, spill and ring tiers with at least the WAL checked", rep)
	}
}
