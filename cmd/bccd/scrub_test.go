// Bit-rot chaos harness: runs bccd as a subprocess, flips real bytes on
// disk in each durable tier (WAL, snapshot, result spill) or
// corrupts the replication retention ring via fault injection, triggers a
// scrub cycle over the admin endpoint, and asserts the self-healing
// contract: damage is detected within one cycle, repaired from the cheapest
// healthy source, and query answers afterward are byte-identical to the
// answers before the damage. What cannot be repaired must land in
// quarantine and flip /healthz.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// scrubReport mirrors the admin endpoint's cycle report.
type scrubReport struct {
	Checked     int   `json:"checked"`
	Corrupt     int   `json:"corrupt"`
	Repaired    int   `json:"repaired"`
	Quarantined int   `json:"quarantined"`
	Bytes       int64 `json:"bytes"`
	Tiers       []struct {
		Tier        string   `json:"tier"`
		Listed      int      `json:"listed"`
		Checked     int      `json:"checked"`
		Corrupt     int      `json:"corrupt"`
		Repaired    int      `json:"repaired"`
		Quarantined int      `json:"quarantined"`
		Errors      []string `json:"errors"`
	} `json:"tiers"`
}

// runScrub triggers one synchronous scrub cycle on p.
func runScrub(t *testing.T, p *bccdProc) scrubReport {
	t.Helper()
	resp, err := http.Post(p.url("/v1/admin/scrub"), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin scrub: status %d: %s", resp.StatusCode, body)
	}
	var rep scrubReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// tierOf plucks one tier out of a scrub report.
func (r scrubReport) tierOf(t *testing.T, name string) (tier struct {
	Tier        string   `json:"tier"`
	Listed      int      `json:"listed"`
	Checked     int      `json:"checked"`
	Corrupt     int      `json:"corrupt"`
	Repaired    int      `json:"repaired"`
	Quarantined int      `json:"quarantined"`
	Errors      []string `json:"errors"`
}) {
	t.Helper()
	for _, tr := range r.Tiers {
		if tr.Tier == name {
			return tr
		}
	}
	t.Fatalf("tier %q missing from scrub report %+v", name, r)
	return
}

// canonicalAnswer posts one include-free BCC query and returns the response
// body with the volatile fields (timings, trace, cache provenance) zeroed,
// so two answers can be compared byte for byte.
func canonicalAnswer(t *testing.T, p *bccdProc, fp, algo string) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"graph": %q, "algorithm": %q}`, fp, algo)
	resp, err := http.Post(p.url("/v1/bcc"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s/%s: status %d: %s", fp, algo, resp.StatusCode, data)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, volatile := range []string{"elapsed_ns", "phases", "trace", "cached"} {
		delete(m, volatile)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// flipOnDisk corrupts one byte of path in place, past the 6-byte codec file
// header so the frame CRC is what must catch it.
func flipOnDisk(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(b) {
		off = len(b) - 1
	}
	b[off] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// globOne returns the single path matching pattern, failing otherwise.
func globOne(t *testing.T, pattern string) string {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob %s: %v %v", pattern, paths, err)
	}
	return paths[0]
}

// healthz fetches /healthz, returning the status code and decoded body.
func healthz(t *testing.T, p *bccdProc) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(p.url("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// TestBitRotWALTierHeals flips a byte inside the live WAL segment: one scrub
// cycle must detect it and heal by compaction, queries must answer
// byte-identically, and a cold restart over the healed directory must
// recover every graph.
func TestBitRotWALTierHeals(t *testing.T) {
	dir := t.TempDir()
	p := startBccd(t, dir, "")
	g1, _ := crashGraph(t, 1)
	g2, _ := crashGraph(t, 2)
	fp1, err := p.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := p.upload(g2)
	if err != nil {
		t.Fatal(err)
	}
	before := canonicalAnswer(t, p, fp1, "tv-smp")

	flipOnDisk(t, globOne(t, filepath.Join(dir, "wal-*.log")), 10)
	rep := runScrub(t, p)
	if tr := rep.tierOf(t, "wal"); tr.Corrupt != 1 || tr.Repaired != 1 {
		t.Fatalf("wal tier after bit-rot = %+v, want 1 corrupt, 1 repaired; stderr:\n%s", tr, p.stderr())
	}
	if rep := runScrub(t, p); rep.Corrupt != 0 {
		t.Fatalf("second cycle still corrupt: %+v", rep)
	}
	after := canonicalAnswer(t, p, fp1, "tv-smp")
	if string(before) != string(after) {
		t.Fatalf("answer changed across WAL repair:\n%s\n%s", before, after)
	}
	if code, _ := healthz(t, p); code != http.StatusOK {
		t.Fatalf("healthz after clean repair: %d", code)
	}

	// The healed directory is a valid recovery image.
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	p.waitExit()
	p2 := startBccd(t, dir, "")
	graphs, err := p2.graphs()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := graphs[fp1]; !ok {
		t.Fatalf("graph %s lost after repair+restart", fp1)
	}
	if _, ok := graphs[fp2]; !ok {
		t.Fatalf("graph %s lost after repair+restart", fp2)
	}
}

// TestBitRotSnapshotTierHeals compacts so a snapshot generation exists on
// disk, rots it, and proves scrub + restart still serve every graph.
func TestBitRotSnapshotTierHeals(t *testing.T) {
	dir := t.TempDir()
	// A tiny compaction threshold so the uploads immediately produce a
	// snapshot generation.
	p := startBccd(t, dir, "", "-compact-bytes", "256")
	g1, _ := crashGraph(t, 3)
	fp1, err := p.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if paths, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin")); len(paths) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never produced a snapshot; stderr:\n%s", p.stderr())
		}
		time.Sleep(20 * time.Millisecond)
	}
	before := canonicalAnswer(t, p, fp1, "tv-opt")

	flipOnDisk(t, globOne(t, filepath.Join(dir, "snap-*.bin")), 10)
	rep := runScrub(t, p)
	tr := rep.tierOf(t, "wal") // snapshots are walked by the wal tier
	if tr.Corrupt < 1 || tr.Repaired < 1 {
		t.Fatalf("wal tier after snapshot rot = %+v; stderr:\n%s", tr, p.stderr())
	}
	if rep := runScrub(t, p); rep.Corrupt != 0 {
		t.Fatalf("second cycle still corrupt: %+v", rep)
	}
	after := canonicalAnswer(t, p, fp1, "tv-opt")
	if string(before) != string(after) {
		t.Fatalf("answer changed across snapshot repair:\n%s\n%s", before, after)
	}

	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	p.waitExit()
	p2 := startBccd(t, dir, "", "-compact-bytes", "256")
	graphs, err := p2.graphs()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := graphs[fp1]; !ok {
		t.Fatalf("graph %s lost after snapshot repair+restart", fp1)
	}
}

// TestBitRotSpillTierHeals demotes a result to the disk spill, rots the
// spill file, and proves the scrubber recomputes it — the re-queried answer
// is byte-identical to the pre-damage one.
func TestBitRotSpillTierHeals(t *testing.T) {
	dir := t.TempDir()
	// One cache entry: the second query demotes the first result to disk.
	p := startBccd(t, dir, "", "-cache", "1")
	g1, _ := crashGraph(t, 4)
	g2, _ := crashGraph(t, 5)
	fp1, err := p.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := p.upload(g2)
	if err != nil {
		t.Fatal(err)
	}
	before := canonicalAnswer(t, p, fp1, "fast-bcc")
	canonicalAnswer(t, p, fp2, "fast-bcc") // evicts fp1's entry → spill file

	flipOnDisk(t, globOne(t, filepath.Join(dir, "spill", "*.res")), 20)
	rep := runScrub(t, p)
	if tr := rep.tierOf(t, "spill"); tr.Corrupt != 1 || tr.Repaired != 1 {
		t.Fatalf("spill tier after bit-rot = %+v; stderr:\n%s", tr, p.stderr())
	}
	if rep := runScrub(t, p); rep.Corrupt != 0 {
		t.Fatalf("second cycle still corrupt: %+v", rep)
	}
	after := canonicalAnswer(t, p, fp1, "fast-bcc")
	if string(before) != string(after) {
		t.Fatalf("answer changed across spill repair:\n%s\n%s", before, after)
	}
}

// TestBitRotRingTierTruncatesAndResyncs corrupts the primary's retention
// ring via the repl.ring injection site: the scrub must truncate retention,
// and a standby that then connects behind the new floor must converge via
// snapshot resync with byte-identical answers.
func TestBitRotRingTierTruncatesAndResyncs(t *testing.T) {
	dirP, dirS := t.TempDir(), t.TempDir()
	pri := startBccd(t, dirP, "corrupt,site=repl.ring,count=1", "-repl-listen", "127.0.0.1:0")
	g1, _ := crashGraph(t, 6)
	fp, err := pri.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	before := canonicalAnswer(t, pri, fp, "tv-filter")

	rep := runScrub(t, pri)
	tr := rep.tierOf(t, "ring")
	if tr.Corrupt != 1 || tr.Repaired != 1 {
		t.Fatalf("ring tier = %+v, want 1 corrupt repaired by truncation; stderr:\n%s", tr, pri.stderr())
	}
	if rep := runScrub(t, pri); rep.Corrupt != 0 {
		t.Fatalf("second cycle still corrupt: %+v", rep)
	}

	// A standby starting from nothing sits behind the truncated floor: the
	// snapshot-resync path is its repair. It must converge on the graphs.
	stb := startBccd(t, dirS, "", "-repl-follow", pri.replAddr())
	deadline := time.Now().Add(30 * time.Second)
	for {
		graphs, err := stb.graphs()
		if err == nil {
			if _, ok := graphs[fp]; ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never converged; stderr:\n%s", stb.stderr())
		}
		time.Sleep(50 * time.Millisecond)
	}
	afterStb := canonicalAnswer(t, stb, fp, "tv-filter")
	if string(before) != string(afterStb) {
		t.Fatalf("standby answer differs from primary's pre-damage answer:\n%s\n%s", before, afterStb)
	}
}

// TestBitRotUnrepairableQuarantines plants an artifact no source can
// rebuild (a stray spill file for a graph the daemon never saw): the scrub
// must quarantine it and /healthz must go unhealthy until an operator
// clears the quarantine directory.
func TestBitRotUnrepairableQuarantines(t *testing.T) {
	dir := t.TempDir()
	p := startBccd(t, dir, "")
	g1, _ := crashGraph(t, 7)
	if _, err := p.upload(g1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "spill", "stray-key.res")
	if err := os.WriteFile(stray, []byte("rotten beyond recognition"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep := runScrub(t, p)
	if tr := rep.tierOf(t, "spill"); tr.Corrupt != 1 || tr.Quarantined != 1 {
		t.Fatalf("spill tier = %+v, want the stray quarantined; stderr:\n%s", tr, p.stderr())
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray still in the spill directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "stray-key.res")); err != nil {
		t.Fatalf("stray not moved to quarantine: %v", err)
	}
	code, body := healthz(t, p)
	if code != http.StatusServiceUnavailable || body["status"] != "unhealthy" {
		t.Fatalf("healthz after quarantine: %d %v, want 503 unhealthy", code, body)
	}
	if q, ok := body["quarantined"].([]any); !ok || len(q) != 1 {
		t.Fatalf("healthz quarantined = %v", body["quarantined"])
	}

	// Operator clears the quarantine; a restart comes back healthy.
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	p.waitExit()
	if err := os.RemoveAll(filepath.Join(dir, "quarantine")); err != nil {
		t.Fatal(err)
	}
	p2 := startBccd(t, dir, "")
	if code, _ := healthz(t, p2); code != http.StatusOK {
		t.Fatalf("healthz after operator clear: %d", code)
	}
}
