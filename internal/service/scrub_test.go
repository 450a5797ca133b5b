package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/faults"
)

// scrubLog is a concurrency-safe Logf sink for asserting scrub lines.
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

// flipByte damages one on-disk file in place, past the codec's 6-byte file
// header so the frame CRC (not the magic check) is what must catch it.
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

// walFile is the path of the store's WAL generation gen.
func walFile(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

// blockSnapshot makes the snapshot of generation gen unwritable, as a full
// disk would: a non-empty directory sits on its tmp path, so the failed
// compaction cannot clear it either. It returns the unblock function.
func blockSnapshot(t *testing.T, dir string, gen uint64) func() {
	t.Helper()
	tmp := filepath.Join(dir, fmt.Sprintf("snap-%08d.bin.tmp", gen))
	if err := os.MkdirAll(filepath.Join(tmp, "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.RemoveAll(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

// adminScrub runs one cycle through POST /v1/admin/scrub.
func adminScrub(t *testing.T, ts *httptest.Server) durable.ScrubReport {
	t.Helper()
	var rep durable.ScrubReport
	resp, err := http.Post(ts.URL+"/v1/admin/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin scrub: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// healthzDamaged fetches /healthz and returns its code, status and damaged
// list.
func healthzDamaged(t *testing.T, ts *httptest.Server) (int, string, []string) {
	t.Helper()
	var hz struct {
		Status  string   `json:"status"`
		Damaged []string `json:"damaged"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, hz.Status, hz.Damaged
}

func TestScrubRequiresDurability(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/admin/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("admin scrub without durability: status %d, want 409", resp.StatusCode)
	}

	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	if rep := adminScrub(t, newHTTPServer(t, s)); rep.Listed != 1 || rep.Corrupt != 0 {
		t.Fatalf("durable server's scrub = %+v, want its one WAL segment, clean", rep)
	}
}

// TestScrubWALRepairByCompaction flips a byte inside the active WAL and
// proves one cycle heals it by compacting the authoritative in-memory state
// into a fresh generation, after which a cold restart recovers every graph.
func TestScrubWALRepairByCompaction(t *testing.T) {
	dir := t.TempDir()
	lg := &scrubLog{}
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir, Logf: lg.logf})
	ts := newHTTPServer(t, s)
	uploadGraph(t, ts, testGraph(t), "")
	g2, _ := bicc.RandomConnectedGraph(30, 60, 3)
	uploadGraph(t, ts, g2, "")

	wal := walFile(dir, s.dur.Load().store.Generation())
	flipByte(t, wal, 10)
	rep := adminScrub(t, ts)
	if rep.Corrupt != 1 || rep.Repaired != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("report = %+v, want 1 corrupt, 1 repaired", rep)
	}
	if !lg.contains("compaction retired 1 damaged files") {
		t.Fatalf("WAL not healed by compaction; log: %v", lg.lines)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("damaged WAL segment still on disk after repair")
	}
	if rep := adminScrub(t, ts); rep.Corrupt != 0 {
		t.Fatalf("post-repair cycle still corrupt: %+v", rep)
	}

	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	_, rec := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rec.Graphs != 2 || rec.Truncations != 0 {
		t.Fatalf("recovery after WAL repair: %+v, want both graphs, no truncations", rec)
	}
}

// TestScrubRetriesCompactionAndHealthz damages the WAL while the next two
// snapshot generations cannot be written. Nothing is moved or deleted: the
// segment stays in place, /healthz and /statsz name it under damaged, and
// each cycle retries the compaction. Once the disk frees up, the third
// cycle repairs it, /healthz is back at 200, and a restart recovers every
// graph.
func TestScrubRetriesCompactionAndHealthz(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")
	if code, _, _ := healthzDamaged(t, ts); code != http.StatusOK {
		t.Fatalf("healthz before damage: %d", code)
	}

	st := s.dur.Load().store
	gen := st.Generation()
	wal := walFile(dir, gen)
	flipByte(t, wal, 10)
	unblock1 := blockSnapshot(t, dir, gen+1)
	unblock2 := blockSnapshot(t, dir, gen+2)
	for cycle := 1; cycle <= 2; cycle++ {
		rep := adminScrub(t, ts)
		if rep.Repaired != 0 || !slices.Equal(rep.Damaged, []string{wal}) {
			t.Fatalf("cycle %d = %+v, want %s kept as damaged", cycle, rep, wal)
		}
		if _, err := os.Stat(wal); err != nil {
			t.Fatalf("cycle %d moved or deleted the damaged segment: %v", cycle, err)
		}
		code, status, damaged := healthzDamaged(t, ts)
		if code != http.StatusServiceUnavailable || status != "unhealthy" || !slices.Equal(damaged, []string{wal}) {
			t.Fatalf("healthz after cycle %d: %d %q %v, want 503 unhealthy naming %s", cycle, code, status, damaged, wal)
		}
	}
	if snap := s.Snapshot(); snap.Scrub == nil || snap.Scrub.Cycles != 2 || len(snap.Scrub.Damaged) != 1 {
		t.Fatalf("statsz scrub section: %+v", snap.Scrub)
	}

	unblock1()
	unblock2()
	rep := adminScrub(t, ts)
	if rep.Repaired != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("third cycle = %+v, want the segment repaired", rep)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("damaged segment survived the repair: %v", err)
	}
	if code, _, damaged := healthzDamaged(t, ts); code != http.StatusOK || damaged != nil {
		t.Fatalf("healthz after the repair: %d %v", code, damaged)
	}

	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rec := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if rec.Graphs != 1 || rec.Truncations != 0 {
		t.Fatalf("recovery after the retried repair: %+v, want the graph back", rec)
	}
	if _, ok := s2.registry.Get(up.Fingerprint); !ok {
		t.Fatal("acknowledged graph lost")
	}
}

// TestScrubUnlistableDataDirIsDamage removes a running server's data
// directory. A cycle that cannot list it must not pass as clean: the
// listing error is reported, /healthz answers 503 naming the directory, and
// it stays there until a cycle lists and compacts again, which writes the
// in-memory state back.
func TestScrubUnlistableDataDirIsDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	up := uploadGraph(t, ts, testGraph(t), "")

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rep := adminScrub(t, ts)
	if len(rep.Errors) == 0 || !slices.Equal(rep.Damaged, []string{dir}) || rep.Repaired != 0 {
		t.Fatalf("cycle over a removed directory = %+v, want a listing error and %s damaged", rep, dir)
	}
	if code, _, damaged := healthzDamaged(t, ts); code != http.StatusServiceUnavailable || !slices.Equal(damaged, []string{dir}) {
		t.Fatalf("healthz over a removed directory: %d %v, want 503 naming it", code, damaged)
	}

	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if rep := adminScrub(t, ts); rep.Repaired != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("cycle over the recreated directory = %+v, want it repaired", rep)
	}
	if code, _, _ := healthzDamaged(t, ts); code != http.StatusOK {
		t.Fatalf("healthz after the repair: %d", code)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rec := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if _, ok := s2.registry.Get(up.Fingerprint); !ok || rec.Graphs != 1 {
		t.Fatalf("recovery after the repair: %+v, want the graph back", rec)
	}
}

// TestScrubDuringBackgroundCompactionKeepsActiveWAL: a repair that finds a
// background compaction in flight must not delete the segment receiving
// appends. The compaction's snapshot is slowed down, a byte of the active
// segment is flipped, and one cycle runs; then one more graph is uploaded.
// A restart must recover all three graphs.
func TestScrubDuringBackgroundCompactionKeepsActiveWAL(t *testing.T) {
	dir := t.TempDir()
	r := faults.NewRule(faults.KindDelay, "durable.snap.write")
	r.Delay, r.Count = time.Second, 1
	faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
	defer faults.Deactivate()

	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir, CompactBytes: 20000})
	ts := newHTTPServer(t, s)
	big, err := bicc.RandomConnectedGraph(2000, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fps := []string{uploadGraph(t, ts, big, "").Fingerprint} // crosses CompactBytes
	st := s.dur.Load().store
	if st.Generation() != 2 {
		t.Fatalf("generation %d, want 2 once the upload crosses CompactBytes", st.Generation())
	}
	fps = append(fps, uploadGraph(t, ts, testGraph(t), "").Fingerprint)
	if _, err := os.Stat(filepath.Join(dir, "snap-00000002.bin")); !os.IsNotExist(err) {
		t.Fatalf("background compaction finished before the cycle: %v", err)
	}
	flipByte(t, walFile(dir, 2), 10)
	if rep := adminScrub(t, ts); rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("cycle = %+v, want the active segment found and repaired", rep)
	}
	g3, _ := bicc.RandomConnectedGraph(30, 60, 3)
	fps = append(fps, uploadGraph(t, ts, g3, "").Fingerprint)

	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rec := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	for _, fp := range fps {
		if _, ok := s2.registry.Get(fp); !ok {
			t.Fatalf("graph %s lost; recovery %+v", fp, rec)
		}
	}
}

// TestAdminScrubEndpoint runs a cycle through POST /v1/admin/scrub and
// checks the report shape on the wire: one flat report, no tiers.
func TestAdminScrubEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
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
	var rep map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep["listed"] != 1.0 || rep["checked"] != 1.0 || rep["corrupt"] != 0.0 || rep["bytes"].(float64) <= 0 {
		t.Fatalf("wire report = %v, want the one WAL segment checked clean", rep)
	}
	if _, ok := rep["tiers"]; ok {
		t.Fatalf("wire report still has tiers: %v", rep)
	}
	snap := s.Snapshot()
	if snap.Scrub == nil || snap.Scrub.Cycles != 1 || snap.Scrub.Last == nil || snap.Scrub.Last.Checked != 1 {
		t.Fatalf("statsz scrub section = %+v", snap.Scrub)
	}
}
