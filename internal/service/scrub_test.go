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

// blockSnapshot puts a directory where the next compaction of the store at
// generation gen writes its snapshot, so that compaction fails as it would
// on a full disk.
func blockSnapshot(t *testing.T, dir string, gen uint64) {
	t.Helper()
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("snap-%08d.bin.tmp", gen+1)), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestScrubQuarantineAndHealthz damages the WAL while the compaction that
// would repair it cannot write its snapshot: nothing can heal the segment,
// so the scrubber must move it to quarantine, flip /healthz to 503,
// surface it on /statsz, and keep reporting it after a restart.
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
	files := d.store.ScrubFiles()
	if len(files) != 1 || files[0].Snapshot {
		t.Fatalf("scrub files = %+v, want the one WAL segment", files)
	}
	wal := files[0].Path
	flipByte(t, wal, 10)
	blockSnapshot(t, dir, d.store.Generation())
	rep, err := s.RunScrub()
	if err != nil {
		t.Fatal(err)
	}
	tr := scrubTier(t, rep, "wal")
	if tr.Corrupt != 1 || tr.Repaired != 0 || tr.Quarantined != 1 {
		t.Fatalf("wal tier = %+v, want 1 corrupt quarantined", tr)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatal("quarantined segment still in the data directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(wal))); err != nil {
		t.Fatalf("segment not in the quarantine directory: %v", err)
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
	if rep.Checked == 0 || fmt.Sprint(rep.Tiers) != "[{wal} {ring}]" {
		t.Fatalf("wire report = %+v, want the wal and ring tiers with at least the WAL checked", rep)
	}
}
