package durable

import (
	"os"
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
