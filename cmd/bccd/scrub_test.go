// Bit-rot chaos harness: runs bccd as a subprocess, flips real bytes on
// disk in the durable files (WAL segments, snapshots) or corrupts a
// replication retention-ring record via fault injection, and asserts the
// self-healing contract. On disk, damage is detected within one scrub cycle
// and repaired by a compaction, retried every cycle while the compaction
// cannot write, and query answers afterward are byte-identical to the
// answers before the damage. In the ring, a rotten record never ships: the
// standby resyncs and answers byte-identically without any scrub cycle.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrubReport mirrors the admin endpoint's cycle report.
type scrubReport struct {
	Listed   int      `json:"listed"`
	Checked  int      `json:"checked"`
	Corrupt  int      `json:"corrupt"`
	Repaired int      `json:"repaired"`
	Bytes    int64    `json:"bytes"`
	Damaged  []string `json:"damaged"`
	Errors   []string `json:"errors"`
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

// metric reads one unlabeled series from p's /metrics.
func metric(t *testing.T, p *bccdProc, name string) float64 {
	t.Helper()
	resp, err := http.Get(p.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s missing from /metrics", name)
	return 0
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
	if rep := runScrub(t, p); rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub after bit-rot = %+v, want 1 corrupt, 1 repaired; stderr:\n%s", rep, p.stderr())
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
	if rep := runScrub(t, p); rep.Corrupt < 1 || rep.Repaired < 1 {
		t.Fatalf("scrub after snapshot rot = %+v; stderr:\n%s", rep, p.stderr())
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

// TestBitRotRingRecordResyncsOnShip corrupts the primary's retention ring
// via the repl.ring injection site while a standby is connected, so the
// damaged record is the next one to ship. The primary must refuse it and
// resync the standby instead, and the standby must answer byte-identically
// to the primary without any scrub cycle.
func TestBitRotRingRecordResyncsOnShip(t *testing.T) {
	pri, stb := startReplPair(t, t.TempDir(), t.TempDir(), "corrupt,site=repl.ring,count=1", "")
	// Upload only once the standby has applied its initial snapshot: from
	// then on, every record reaches it through the ring.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, err := stb.replStats(); err == nil {
			if n, _ := st["resyncs"].(float64); n >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never finished its initial resync; stderr:\n%s", stb.stderr())
		}
		time.Sleep(10 * time.Millisecond)
	}
	g1, _ := crashGraph(t, 6)
	fp, err := pri.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	stb.waitApplied(1)

	if n := metric(t, pri, "bicc_repl_ring_corrupt_total"); n != 1 {
		t.Fatalf("ring corrupt total = %v, want the flipped record refused; stderr:\n%s", n, pri.stderr())
	}
	if n := metric(t, pri, "bicc_scrub_cycles_total"); n != 0 {
		t.Fatalf("%v scrub cycles ran; the ship path alone must catch ring rot", n)
	}
	for _, algo := range []string{"tv-filter", "sequential"} {
		want, err := queryNorm(t, pri.url(""), fp, algo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryNorm(t, stb.url(""), fp, algo)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: standby answer differs from the primary's:\n%s\n%s", algo, got, want)
		}
	}
}

// TestBitRotUnrepairableRetries rots the WAL while the next two snapshot
// generations cannot be written (a non-empty directory blocks each tmp
// path, as a full disk would). The scrub must keep the segment in place and
// answer /healthz 503 naming it under damaged, cycle after cycle; once the
// disk frees up the next cycle repairs it, /healthz is back at 200, and a
// restart recovers every graph.
func TestBitRotUnrepairableRetries(t *testing.T) {
	dir := t.TempDir()
	p := startBccd(t, dir, "")
	g1, _ := crashGraph(t, 7)
	fp, err := p.upload(g1)
	if err != nil {
		t.Fatal(err)
	}
	before := canonicalAnswer(t, p, fp, "tv-smp")
	ds, err := p.durStats()
	if err != nil {
		t.Fatal(err)
	}
	gen := int(ds["wal_generation"])
	wal := globOne(t, filepath.Join(dir, "wal-*.log"))
	var blocks []string
	for _, g := range []int{gen + 1, gen + 2} {
		b := filepath.Join(dir, fmt.Sprintf("snap-%08d.bin.tmp", g))
		if err := os.MkdirAll(filepath.Join(b, "full"), 0o755); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	flipOnDisk(t, wal, 10)

	for cycle := 1; cycle <= 2; cycle++ {
		rep := runScrub(t, p)
		if rep.Repaired != 0 || !slices.Equal(rep.Damaged, []string{wal}) {
			t.Fatalf("cycle %d = %+v, want %s kept as damaged; stderr:\n%s", cycle, rep, wal, p.stderr())
		}
		if _, err := os.Stat(wal); err != nil {
			t.Fatalf("cycle %d moved or deleted the damaged segment: %v", cycle, err)
		}
		code, body := healthz(t, p)
		if code != http.StatusServiceUnavailable || body["status"] != "unhealthy" {
			t.Fatalf("healthz after cycle %d: %d %v, want 503 unhealthy", cycle, code, body)
		}
		if d, ok := body["damaged"].([]any); !ok || len(d) != 1 || d[0] != wal {
			t.Fatalf("healthz damaged = %v, want [%s]", body["damaged"], wal)
		}
	}

	for _, b := range blocks {
		if err := os.RemoveAll(b); err != nil {
			t.Fatal(err)
		}
	}
	if rep := runScrub(t, p); rep.Repaired != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("cycle after unblocking = %+v, want the segment repaired", rep)
	}
	if code, _ := healthz(t, p); code != http.StatusOK {
		t.Fatalf("healthz after the repair: %d", code)
	}

	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	p.waitExit()
	p2 := startBccd(t, dir, "")
	if code, _ := healthz(t, p2); code != http.StatusOK {
		t.Fatalf("healthz after restart: %d", code)
	}
	if after := canonicalAnswer(t, p2, fp, "tv-smp"); string(after) != string(before) {
		t.Fatalf("answer changed across the retried repair and restart:\n%s\n%s", before, after)
	}
}
