package durable

import (
	"os"
	"strings"
	"testing"

	"bicc/internal/faults"
)

// corruptPlan activates a one-shot bit-flip at site and returns the cleanup.
func corruptPlan(t *testing.T, site string) {
	t.Helper()
	r := faults.NewRule(faults.KindCorrupt, site)
	r.Count = 1
	faults.Activate(&faults.Plan{Seed: 99, Rules: []*faults.Rule{r}})
	t.Cleanup(faults.Deactivate)
}

func TestScrubFilesListsWALAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	defer s.Close()
	addGraphs(t, s, 3)

	files := s.ScrubFiles()
	if len(files) != 1 {
		t.Fatalf("fresh store lists %d files, want 1 (active WAL)", len(files))
	}
	if files[0].Snapshot {
		t.Fatalf("active WAL listed as snapshot")
	}
	if files[0].Limit != s.WALBytes() {
		t.Fatalf("active WAL limit %d, want %d", files[0].Limit, s.WALBytes())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	files = s.ScrubFiles()
	var wals, snaps int
	for _, f := range files {
		if f.Snapshot {
			snaps++
			if f.Limit != 0 {
				t.Errorf("snapshot %s has a prefix limit", f.Path)
			}
		} else {
			wals++
		}
	}
	if wals != 1 || snaps != 1 {
		t.Fatalf("post-compact listing: %d WALs, %d snapshots, want 1 and 1", wals, snaps)
	}
}

func TestCheckWALImageDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	defer s.Close()
	addGraphs(t, s, 2)

	var walPath string
	for _, f := range s.ScrubFiles() {
		if !f.Snapshot {
			walPath = f.Path
		}
	}
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckWALImage(append([]byte(nil), b...), 0); err != nil {
		t.Fatalf("clean WAL image flagged: %v", err)
	}
	// The wal.verify injection site flips one deterministic bit in the
	// image; wherever it lands — header, frame, payload — the CRC chain
	// must catch it.
	corruptPlan(t, SiteWALVerify)
	if err := CheckWALImage(append([]byte(nil), b...), 0); err == nil {
		t.Fatalf("bit-flipped WAL image passed verification")
	}
}

func TestCheckSnapshotImageDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	defer s.Close()
	addGraphs(t, s, 2)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var snapPath string
	for _, f := range s.ScrubFiles() {
		if f.Snapshot {
			snapPath = f.Path
		}
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSnapshotImage(append([]byte(nil), b...), 0); err != nil {
		t.Fatalf("clean snapshot flagged: %v", err)
	}
	corruptPlan(t, SiteWALVerify)
	if err := CheckSnapshotImage(append([]byte(nil), b...), 0); err == nil {
		t.Fatalf("bit-flipped snapshot passed verification")
	}
}

func TestCheckSpillImageDetectsBitFlipAndKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	sp, _, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := ResultRecord{FP: "aabbcc", Algorithm: "tv-smp", Procs: 4,
		EdgeComponent: []int32{0, 0, 1}, View: []byte(`{"x":1}`)}
	if err := sp.Put(rec); err != nil {
		t.Fatal(err)
	}
	key := rec.Key()
	b, err := os.ReadFile(sp.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckSpillImage(append([]byte(nil), b...), key, 0)
	if err != nil {
		t.Fatalf("clean spill image flagged: %v", err)
	}
	if got.Key() != key {
		t.Fatalf("decoded key %q, want %q", got.Key(), key)
	}
	if _, err := CheckSpillImage(append([]byte(nil), b...), "otherkey", 0); err == nil {
		t.Fatalf("cross-wired spill file (key mismatch) passed verification")
	}
	corruptPlan(t, SiteSpillVerify)
	if _, err := CheckSpillImage(append([]byte(nil), b...), key, 0); err == nil {
		t.Fatalf("bit-flipped spill image passed verification")
	}
}

// TestSpillKeysIncludesStrays proves the scrub listing unions the index with
// directory strays: a file the tier no longer tracks still holds disk and
// must be walked (it is the quarantine path's entry point).
func TestSpillKeysIncludesStrays(t *testing.T) {
	dir := t.TempDir()
	sp, _, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Put(ResultRecord{FP: "aa", Algorithm: "sequential", Procs: 1,
		EdgeComponent: []int32{0}, View: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sp.Path("stray-key"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys := sp.Keys()
	if len(keys) != 2 {
		t.Fatalf("Keys() = %v, want tracked + stray", keys)
	}
	found := false
	for _, k := range keys {
		if k == "stray-key" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stray file missing from Keys(): %v", keys)
	}
	if !strings.HasSuffix(sp.Path("stray-key"), ".res") {
		t.Fatalf("Path() = %q", sp.Path("stray-key"))
	}
}
