package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bicc"
)

// openT opens a store in dir, failing the test on error.
func openT(t *testing.T, cfg Config) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// addGraphs appends n distinct graphs and returns fp -> graph.
func addGraphs(t *testing.T, s *Store, n int) map[string]*bicc.Graph {
	t.Helper()
	out := map[string]*bicc.Graph{}
	for i := 0; i < n; i++ {
		g := testGraph(t, int64(100+i))
		fp := fmt.Sprintf("fp-%04d", i)
		if err := s.AppendAdd(fp, fmt.Sprintf("g%d", i), g); err != nil {
			t.Fatal(err)
		}
		out[fp] = g
	}
	return out
}

func sameGraphs(t *testing.T, rec *Recovery, want map[string]*bicc.Graph) {
	t.Helper()
	if len(rec.Graphs) != len(want) {
		t.Fatalf("recovered %d graphs, want %d", len(rec.Graphs), len(want))
	}
	for _, gr := range rec.Graphs {
		g, ok := want[gr.FP]
		if !ok {
			t.Fatalf("recovered unexpected fp %s", gr.FP)
		}
		if gr.Graph.NumEdges() != g.NumEdges() || gr.Graph.NumVertices() != g.NumVertices() {
			t.Fatalf("%s: recovered %d/%d, want %d/%d", gr.FP,
				gr.Graph.NumVertices(), gr.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for i, e := range g.Edges() {
			if gr.Graph.Edges()[i] != e {
				t.Fatalf("%s: edge %d differs", gr.FP, i)
			}
		}
	}
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, Config{Dir: dir})
	if len(rec.Graphs) != 0 || rec.Truncations != 0 {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
	want := addGraphs(t, s, 5)
	if err := s.AppendRemove("fp-0003"); err != nil {
		t.Fatal(err)
	}
	delete(want, "fp-0003")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, Config{Dir: dir})
	defer s2.Close()
	if rec2.Truncations != 0 || rec2.DroppedRecords != 0 {
		t.Fatalf("clean close must not need repair: %+v", rec2)
	}
	sameGraphs(t, rec2, want)
}

// TestStoreRecoversFromAnyTruncation is the byte-boundary contract: cut the
// WAL anywhere and recovery must come back with a clean prefix of the
// acknowledged writes — never an error, never a mangled graph.
func TestStoreRecoversFromAnyTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := walPath(dir, 1)
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	step := 1
	if testing.Short() {
		step = 97
	}
	for cut := 0; cut <= len(full); cut += step {
		sub := t.TempDir()
		if err := os.WriteFile(walPath(sub, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := Open(Config{Dir: sub})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		// Every recovered graph must be one of the acknowledged ones,
		// byte-identical.
		for _, gr := range rec.Graphs {
			g, ok := want[gr.FP]
			if !ok {
				t.Fatalf("cut=%d: phantom fp %s", cut, gr.FP)
			}
			for i, e := range g.Edges() {
				if gr.Graph.Edges()[i] != e {
					t.Fatalf("cut=%d: %s edge %d differs", cut, gr.FP, i)
				}
			}
		}
		if cut < len(full) && rec.Truncations == 0 && len(rec.Graphs) == len(want) {
			t.Fatalf("cut=%d: all graphs recovered with no truncation from a shortened WAL", cut)
		}
		// The store must accept appends after repair.
		if err := s2.AppendAdd("fp-after", "after", testGraph(t, 999)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		s2.Close()
		s3, rec3 := openT(t, Config{Dir: sub})
		found := false
		for _, gr := range rec3.Graphs {
			if gr.FP == "fp-after" {
				found = true
			}
		}
		if !found {
			t.Fatalf("cut=%d: append after repair did not survive reopen", cut)
		}
		s3.Close()
	}
}

// TestStoreDeltaReplayAcrossReopen proves the mutation record survives the
// full durability cycle: append deltas, reopen, and the recovered graph is
// the post-application edge list at the right generation — then compact and
// reopen again, proving snapshots fold the applied graph in.
func TestStoreDeltaReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	g := fuzzSeedGraph() // 5 vertices, edges (0,1)(1,2)(2,0)(2,3)(3,4)
	if err := s.AppendAdd("fp-d", "delta target", g); err != nil {
		t.Fatal(err)
	}
	// Batch 1: insert (3,5) growing the graph, delete (2,0).
	g1, err := applyOps(g, DeltaRecord{NewN: 6, Ops: []DeltaOp{
		{Del: false, U: 3, V: 5}, {Del: true, U: 2, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(DeltaRecord{ID: "fp-d", Gen: 1, NewN: 6, PostFP: "cfp-1",
		Ops: []DeltaOp{{Del: false, U: 3, V: 5}, {Del: true, U: 2, V: 0}}}, g1); err != nil {
		t.Fatal(err)
	}
	// Batch 2: re-insert (2,0) — lands at the end of the edge list.
	g2, err := applyOps(g1, DeltaRecord{NewN: 6, Ops: []DeltaOp{{Del: false, U: 2, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(DeltaRecord{ID: "fp-d", Gen: 2, NewN: 6, PostFP: "cfp-2",
		Ops: []DeltaOp{{Del: false, U: 2, V: 0}}}, g2); err != nil {
		t.Fatal(err)
	}
	// A delta against an unregistered graph is refused.
	if err := s.AppendDelta(DeltaRecord{ID: "nope", Gen: 1, NewN: 3}, g2); err == nil {
		t.Fatal("AppendDelta accepted an unknown graph id")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(rec *Recovery) {
		t.Helper()
		if len(rec.Graphs) != 1 {
			t.Fatalf("recovered %d graphs, want 1", len(rec.Graphs))
		}
		gr := rec.Graphs[0]
		if gr.FP != "fp-d" || gr.Gen != 2 || gr.CFP != "cfp-2" {
			t.Fatalf("recovered fp=%s gen=%d cfp=%s", gr.FP, gr.Gen, gr.CFP)
		}
		if gr.Graph.NumVertices() != 6 {
			t.Fatalf("recovered %d vertices, want 6", gr.Graph.NumVertices())
		}
		wantEdges := g2.Edges()
		gotEdges := gr.Graph.Edges()
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("recovered %d edges, want %d", len(gotEdges), len(wantEdges))
		}
		for i := range wantEdges {
			if gotEdges[i] != wantEdges[i] {
				t.Fatalf("edge %d: %v, want %v (order must be preserved)", i, gotEdges[i], wantEdges[i])
			}
		}
	}

	s, rec := openT(t, Config{Dir: dir})
	check(rec)
	// Fold into a snapshot and recover from that instead of the WAL replay.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, rec = openT(t, Config{Dir: dir})
	if rec.SnapshotRecords != 1 {
		t.Fatalf("snapshot records %d, want 1", rec.SnapshotRecords)
	}
	check(rec)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyOpsDeletesAtFrontOfLargeList replays one record that deletes
// the first 2000 edges of a 20000-edge path, interleaved with inserts, a
// delete of an edge inserted earlier in the same record and a re-insert of
// a deleted edge: the result is the survivors in order, then the surviving
// inserts in op order.
func TestApplyOpsDeletesAtFrontOfLargeList(t *testing.T) {
	const m, k = 20000, 2000
	edges := make([]bicc.Edge, m)
	for i := range edges {
		edges[i] = bicc.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := bicc.NewGraph(m+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	var ops []DeltaOp
	var inserted []bicc.Edge
	for i := int32(0); i < k; i++ {
		ops = append(ops, DeltaOp{Del: true, U: i + 1, V: i})
		if i%100 == 0 {
			ops = append(ops, DeltaOp{U: i + k, V: i + k + 2})
			inserted = append(inserted, bicc.Edge{U: i + k, V: i + k + 2})
		}
	}
	ops = append(ops,
		DeltaOp{Del: true, U: inserted[3].V, V: inserted[3].U},
		DeltaOp{U: 1, V: 0})
	want := append(append([]bicc.Edge(nil), edges[k:]...), inserted[:3]...)
	want = append(append(want, inserted[4:]...), bicc.Edge{U: 1, V: 0})

	got, err := applyOps(g, DeltaRecord{NewN: m + 1, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != m+1 || got.NumEdges() != len(want) {
		t.Fatalf("replayed n=%d m=%d, want n=%d m=%d", got.NumVertices(), got.NumEdges(), m+1, len(want))
	}
	for i, e := range got.Edges() {
		if e != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, e, want[i])
		}
	}
	// The errors still name the op.
	if _, err := applyOps(g, DeltaRecord{NewN: m + 1, Ops: []DeltaOp{{Del: true, U: 0, V: 1}, {Del: true, U: 1, V: 0}}}); err == nil ||
		err.Error() != "durable: delta op 1 deletes absent edge (1,0)" {
		t.Fatalf("second delete of one edge: %v", err)
	}
	if _, err := applyOps(g, DeltaRecord{NewN: m + 1, Ops: []DeltaOp{{U: 5, V: 4}}}); err == nil ||
		err.Error() != "durable: delta op 0 inserts duplicate edge (5,4)" {
		t.Fatalf("insert of a present edge: %v", err)
	}
}

func TestStoreCompactionPreservesStateAndShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 8)
	if err := s.AppendRemove("fp-0001"); err != nil {
		t.Fatal(err)
	}
	delete(want, "fp-0001")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions = %d", s.Compactions())
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d", s.Generation())
	}
	if got := s.WALBytes(); got != fileHeaderLen {
		t.Fatalf("post-compaction WAL is %d bytes, want %d", got, fileHeaderLen)
	}
	// Old generation files are retired.
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("wal-1 still present: %v", err)
	}
	// Writes after compaction land in the new generation.
	g := testGraph(t, 500)
	if err := s.AppendAdd("fp-new", "new", g); err != nil {
		t.Fatal(err)
	}
	want["fp-new"] = g
	s.Close()

	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
	if rec.SnapshotRecords != 7 {
		t.Fatalf("snapshot records = %d, want 7", rec.SnapshotRecords)
	}
}

// TestStoreCompactReportsSnapshotFailure blocks the snapshot's tmp path
// with a directory: Compact must return the error (the scrubber's WAL
// repair relies on it before it deletes a damaged segment), and the
// generations it could not retire still recover every graph.
func TestStoreCompactReportsSnapshotFailure(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 3)
	if err := os.Mkdir(snapPath(dir, 2)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact reported success without installing a snapshot")
	}
	if s.Compactions() != 0 || s.CompactErrors() != 1 {
		t.Fatalf("compactions %d, errors %d; want 0 and 1", s.Compactions(), s.CompactErrors())
	}
	if _, err := os.Stat(walPath(dir, 1)); err != nil {
		t.Fatalf("wal-1 retired by a failed compaction: %v", err)
	}
	s.Close()
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
}

func TestStoreAutoCompactsPastThreshold(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir, CompactBytes: 2048})
	want := addGraphs(t, s, 12) // ~1 KiB per graph record: crosses the threshold
	// Compaction runs in the background once the WAL passes the threshold.
	deadline := time.Now().Add(10 * time.Second)
	for s.Compactions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Compactions() == 0 {
		t.Fatal("no automatic compaction after exceeding CompactBytes")
	}
	if s.Generation() < 2 {
		t.Fatalf("generation = %d after auto compaction", s.Generation())
	}
	s.Close()
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
}

func TestStoreIgnoresLeftoverTmpAndBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 3)
	s.Close()
	// A compaction that died before rename leaves a tmp; one that tore its
	// snapshot leaves a file without the end marker. Neither may poison
	// recovery.
	if err := os.WriteFile(filepath.Join(dir, "snap-00000009.bin.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := append(fileHeader(fileKindSnapshot), frameHeader(recGraphAdd, []byte("x"))...)
	if err := os.WriteFile(snapPath(dir, 9), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	sameGraphs(t, rec, want)
	if _, err := os.Stat(filepath.Join(dir, "snap-00000009.bin.tmp")); !os.IsNotExist(err) {
		t.Fatal("tmp file not cleaned up")
	}
}

func TestStoreSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			var fsyncs int
			s, _ := openT(t, Config{Dir: dir, Sync: mode,
				FsyncObserve: func(time.Duration) { fsyncs++ }})
			want := addGraphs(t, s, 2)
			s.Close()
			s2, rec := openT(t, Config{Dir: dir})
			defer s2.Close()
			sameGraphs(t, rec, want)
			if mode == SyncAlways && fsyncs < 2 {
				t.Fatalf("SyncAlways observed %d fsyncs", fsyncs)
			}
		})
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"": SyncAlways, "always": SyncAlways,
		"interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("ParseSyncMode accepted bogus")
	}
}
