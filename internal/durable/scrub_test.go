package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"bicc"
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

// flipFile damages one byte of path in place, past the codec's 6-byte file
// header so the frame CRC is what must catch it.
func flipFile(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// blockSnapshot makes the snapshot of generation gen unwritable, as a full
// disk would: a non-empty directory sits on its tmp path, so the failed
// compaction cannot clear it either. It returns the unblock function.
func blockSnapshot(t *testing.T, dir string, gen uint64) func() {
	t.Helper()
	tmp := snapPath(dir, gen) + ".tmp"
	if err := os.MkdirAll(filepath.Join(tmp, "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.RemoveAll(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

// multiGenStore opens a store whose directory holds snap-2 and the WAL
// generations 2, 3 and 4: compactions to generations 3 and 4 fail, so their
// older generations stay. Generation g holds perGen[g-2] graphs, so every
// file has its own size. It returns the store, every added graph, and each
// listed file's size by path.
func multiGenStore(t *testing.T, perGen ...int) (*Store, map[string]*bicc.Graph, map[string]int64) {
	t.Helper()
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	t.Cleanup(func() { s.Close() })
	want := map[string]*bicc.Graph{}
	next := 0
	add := func(n int) {
		for i := 0; i < n; i++ {
			g := testGraph(t, int64(200+next))
			fp := fmt.Sprintf("fp-%04d", next)
			if err := s.AppendAdd(fp, fp, g); err != nil {
				t.Fatal(err)
			}
			want[fp] = g
			next++
		}
	}
	add(1)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i, n := range perGen {
		add(n)
		if i == len(perGen)-1 {
			break
		}
		blockSnapshot(t, dir, s.Generation()+1)
		if err := s.Compact(); err == nil {
			t.Fatal("compaction succeeded over a blocked snapshot")
		}
	}
	files, err := s.scrubFiles()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, f := range files {
		st, err := os.Stat(f.path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[f.path] = st.Size()
	}
	return s, want, sizes
}

func TestScrubFilesListsWALAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	defer s.Close()
	addGraphs(t, s, 3)

	files, err := s.scrubFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("fresh store lists %d files, want 1 (active WAL)", len(files))
	}
	if files[0].snapshot {
		t.Fatalf("active WAL listed as snapshot")
	}
	if files[0].limit != s.WALBytes() {
		t.Fatalf("active WAL limit %d, want %d", files[0].limit, s.WALBytes())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	files, err = s.scrubFiles()
	if err != nil {
		t.Fatal(err)
	}
	var wals, snaps int
	for _, f := range files {
		if f.snapshot {
			snaps++
			if f.limit != 0 {
				t.Errorf("snapshot %s has a prefix limit", f.path)
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

	b, err := os.ReadFile(walPath(dir, s.Generation()))
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
	b, err := os.ReadFile(snapPath(dir, s.Generation()))
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

// TestScrubClassifiesAndRepairs proves one cycle checks every listed file,
// flags the damaged one, and repairs it with a compaction that retires it;
// the report and the lifetime totals agree, and the next cycle is clean.
func TestScrubClassifiesAndRepairs(t *testing.T) {
	s, want, sizes := multiGenStore(t, 1, 2, 3)
	dir := s.cfg.Dir
	damaged := walPath(dir, 3)
	flipFile(t, damaged, 10)

	rep := s.Scrub(0)
	var total int64
	for _, n := range sizes {
		total += n
	}
	if rep.Listed != 4 || rep.Checked != 4 || rep.Bytes != total || rep.Truncated {
		t.Fatalf("report = %+v, want 4 listed and checked, %d bytes", rep, total)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || len(rep.Errors) != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("report = %+v, want 1 corrupt file repaired", rep)
	}
	if _, err := os.Stat(damaged); !os.IsNotExist(err) {
		t.Fatalf("damaged segment not retired by the repair: %v", err)
	}
	st := s.ScrubStats()
	if st.Cycles != 1 || st.Checked != 4 || st.Corrupt != 1 || st.Repaired != 1 || st.Bytes != total {
		t.Fatalf("lifetime totals %+v disagree with the report", st)
	}

	rep = s.Scrub(0)
	if rep.Corrupt != 0 || rep.Repaired != 0 || rep.Checked != 2 {
		t.Fatalf("second cycle = %+v, want the new snapshot and segment, clean", rep)
	}
	s.Close()
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
	if rec.Truncations != 0 {
		t.Fatalf("recovery after repair truncated %d tails", rec.Truncations)
	}
}

// TestScrubBudgetTruncatesAndCursorResumes proves a byte budget stops a
// cycle early, marked truncated, and the cursor makes consecutive cycles
// cover every file in path order, wrapping around.
func TestScrubBudgetTruncatesAndCursorResumes(t *testing.T) {
	s, _, sizes := multiGenStore(t, 1, 2, 3)
	dir := s.cfg.Dir
	order := []string{snapPath(dir, 2), walPath(dir, 2), walPath(dir, 3), walPath(dir, 4)}

	// A 1-byte budget lets exactly one file through per cycle.
	for i := 0; i < 5; i++ {
		rep := s.Scrub(1)
		want := order[i%len(order)]
		if rep.Checked != 1 || rep.Bytes != sizes[want] || !rep.Truncated {
			t.Fatalf("cycle %d = %+v, want %s (%d bytes) alone, truncated", i, rep, want, sizes[want])
		}
	}
	// The cursor sits after snap-2 now: a budget one byte past wal-2 checks
	// wal-2 and wal-3, and the next cycle starts at wal-4.
	rep := s.Scrub(sizes[order[1]] + 1)
	if rep.Checked != 2 || rep.Bytes != sizes[order[1]]+sizes[order[2]] || !rep.Truncated {
		t.Fatalf("two-file cycle = %+v", rep)
	}
	if rep := s.Scrub(1); rep.Bytes != sizes[order[3]] {
		t.Fatalf("cursor did not resume at wal-4: %+v", rep)
	}
	if rep := s.Scrub(0); rep.Checked != 4 || rep.Truncated {
		t.Fatalf("unlimited cycle = %+v, want all 4 files", rep)
	}
}

// TestScrubBudgetSpansSnapshotAndSegments proves the budget is per cycle,
// not per kind of file: snapshots and segments draw on the same bytes. A
// budget the snapshot exhausts leaves every segment for later cycles, and a
// cycle that wraps around carries its budget from the snapshot on into the
// first segment.
func TestScrubBudgetSpansSnapshotAndSegments(t *testing.T) {
	s, _, sizes := multiGenStore(t, 1, 2, 3)
	dir := s.cfg.Dir
	snap := snapPath(dir, 2)
	segs := []string{walPath(dir, 2), walPath(dir, 3), walPath(dir, 4)}

	rep := s.Scrub(sizes[snap])
	if rep.Listed != 4 || rep.Checked != 1 || rep.Bytes != sizes[snap] || !rep.Truncated {
		t.Fatalf("first cycle = %+v, want snap-2 alone (%d bytes), truncated", rep, sizes[snap])
	}
	var segBytes int64
	for _, p := range segs {
		segBytes += sizes[p]
	}
	rep = s.Scrub(segBytes)
	if rep.Checked != 3 || rep.Bytes != segBytes || !rep.Truncated {
		t.Fatalf("second cycle = %+v, want the 3 segments (%d bytes), truncated", rep, segBytes)
	}
	// The cursor sits on wal-4: a budget one byte past the snapshot wraps
	// to snap-2 and goes on into wal-2 in the same cycle.
	rep = s.Scrub(sizes[snap] + 1)
	if rep.Checked != 2 || rep.Bytes != sizes[snap]+sizes[segs[0]] || !rep.Truncated {
		t.Fatalf("wrapping cycle = %+v, want snap-2 and wal-2", rep)
	}
	if st := s.ScrubStats(); st.Cycles != 3 || st.Checked != 6 || st.Corrupt != 0 {
		t.Fatalf("totals = %+v, want 3 clean cycles of 6 checks", st)
	}
}

// TestScrubCyclesSerialize proves overlapping Scrub calls run one after
// another: under a one-file budget, four concurrent cycles check four
// different files, where interleaved cycles would read the same cursor.
func TestScrubCyclesSerialize(t *testing.T) {
	s, _, sizes := multiGenStore(t, 1, 2, 3)
	var mu sync.Mutex
	var got []int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := s.Scrub(1)
			mu.Lock()
			got = append(got, rep.Bytes)
			mu.Unlock()
		}()
	}
	wg.Wait()
	var want []int64
	for _, n := range sizes {
		want = append(want, n)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("concurrent cycles checked files of sizes %v, want each of %v once", got, want)
	}
	if st := s.ScrubStats(); st.Cycles != 4 || st.Checked != 4 {
		t.Fatalf("totals = %+v, want 4 cycles of 1 check", st)
	}
}

// TestScrubVanishedFileIsClean pins the listing race: a file compacted away
// between the listing and its check counts as checked, with no bytes, and
// is not damage.
func TestScrubVanishedFileIsClean(t *testing.T) {
	f := scrubFile{path: filepath.Join(t.TempDir(), "wal-00000001.log")}
	if n, err := f.check(0); n != 0 || err != nil {
		t.Fatalf("check of a vanished file = %d, %v; want 0, nil", n, err)
	}
}

// TestScrubLoopRunsUntilClose proves the background loop runs cycles on its
// cadence and Close drains it: no cycle runs once Close returns.
func TestScrubLoopRunsUntilClose(t *testing.T) {
	s, _ := openT(t, Config{Dir: t.TempDir(), ScrubInterval: 2 * time.Millisecond})
	addGraphs(t, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for s.ScrubStats().Cycles < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.ScrubStats().Cycles; n < 3 {
		t.Fatalf("background loop ran %d cycles, want >= 3", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := s.ScrubStats().Cycles
	time.Sleep(10 * time.Millisecond)
	if s.ScrubStats().Cycles != n {
		t.Fatalf("cycles advanced after Close")
	}
}

// TestScrubLoopOffWithoutInterval proves a store opened without a scrub
// interval runs no background cycles and closes at once.
func TestScrubLoopOffWithoutInterval(t *testing.T) {
	s, _ := openT(t, Config{Dir: t.TempDir()})
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a store with no scrub loop")
	}
	if n := s.ScrubStats().Cycles; n != 0 {
		t.Fatalf("store without a scrub interval ran %d cycles", n)
	}
}

// TestScrubLoopCloseDoesNotWaitForTick proves Close stops a scrub loop
// whose first tick is an hour away at once, with no cycle run.
func TestScrubLoopCloseDoesNotWaitForTick(t *testing.T) {
	s, _ := openT(t, Config{Dir: t.TempDir(), ScrubInterval: time.Hour})
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a scrub loop waiting for its tick")
	}
	if n := s.ScrubStats().Cycles; n != 0 {
		t.Fatalf("scrub loop ran %d cycles before its first tick", n)
	}
}

// TestScrubRepairWaitsForBackgroundCompaction: a repair that finds a
// background compaction in flight must not take that compaction for its
// own. Its snapshot was cut before the segment now receiving appends, so
// Compact waits, then rotates and snapshots again, retiring the damaged
// active segment with every acknowledged graph in the new snapshot.
func TestScrubRepairWaitsForBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	r := faults.NewRule(faults.KindDelay, "durable.snap.write")
	r.Delay, r.Count = time.Second, 1
	faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
	defer faults.Deactivate()

	s, _ := openT(t, Config{Dir: dir, CompactBytes: 2048})
	want := addGraphs(t, s, 3) // crosses CompactBytes: compaction to gen 2 starts
	if s.Generation() != 2 {
		t.Fatalf("generation %d, want 2 once the threshold is crossed", s.Generation())
	}
	g := testGraph(t, 500)
	if err := s.AppendAdd("fp-active", "active", g); err != nil {
		t.Fatal(err)
	}
	want["fp-active"] = g
	if _, err := os.Stat(snapPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("background compaction finished before the repair: %v", err)
	}
	flipFile(t, walPath(dir, 2), 10)

	rep := s.Scrub(0)
	if rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("report = %+v, want the active segment found and repaired", rep)
	}
	if s.Generation() != 3 || s.Compactions() != 2 {
		t.Fatalf("generation %d after %d compactions; the repair must compact on its own",
			s.Generation(), s.Compactions())
	}
	if _, err := os.Stat(walPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("damaged segment not retired: %v", err)
	}
	g = testGraph(t, 501)
	if err := s.AppendAdd("fp-after", "after", g); err != nil {
		t.Fatal(err)
	}
	want["fp-after"] = g
	s.Close()
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
}
