package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicc"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/obs"
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
		if err := s.AppendAdd(GraphRecord{FP: fp, Name: fmt.Sprintf("g%d", i), Graph: g}); err != nil {
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

// TestStoreDropsInvalidGraphAdd: replay checks a WAL's graph-add records
// only once their graphs are needed, so a record in a sound frame whose
// graph repeats an edge gets past the scan. Replay drops it at the end,
// and the entry keeps the graph the earlier record gave it; the scrub's
// image check flags the record.
func TestStoreDropsInvalidGraphAdd(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 1)
	gen := s.Generation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	g := want["fp-0000"]
	payload := encodeGraph(GraphRecord{FP: "fp-0000", Name: "dup", Graph: g})
	// The last edge's (u, v) becomes the first edge's.
	copy(payload[len(payload)-8:], payload[len(payload)-8*g.NumEdges():])
	f, err := os.OpenFile(walPath(dir, gen), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frameHeader(recGraphAdd, payload), payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(walPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckWALImage(b, 0); err == nil || !strings.Contains(err.Error(), "1 undecodable wal record bodies") {
		t.Fatalf("image check of a WAL with a repeated edge: %v", err)
	}
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	if rec.DroppedRecords != 1 || rec.WALRecords != 1 {
		t.Fatalf("recovery: %d dropped, %d replayed, want 1 and 1", rec.DroppedRecords, rec.WALRecords)
	}
	sameGraphs(t, rec, want)
}

// TestReplayConvertsLiveAddsOnly: replay builds a graph-add's CSR only
// once the graph is needed. Of five adds, one removed, one re-added, one
// mutated by a delta and two left as they are, the removed one never
// converts: four conversions, the re-added fp's two adds among them.
func TestReplayConvertsLiveAddsOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, Config{Dir: dir})
	want := addGraphs(t, s, 4)
	if err := s.AppendRemove("fp-0000"); err != nil {
		t.Fatal(err)
	}
	delete(want, "fp-0000")
	if err := s.AppendAdd(GraphRecord{FP: "fp-0001", Name: "again", Graph: want["fp-0001"]}); err != nil {
		t.Fatal(err)
	}
	g := want["fp-0002"]
	e := g.Edges()[0]
	ops := []graph.Delta{{Del: true, U: e.U, V: e.V}}
	ng, _, err := bicc.ApplyDeltas(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(DeltaRecord{ID: "fp-0002", Gen: 1, NewN: int32(ng.NumVertices()), PostFP: "cfp", Ops: ops}, ng); err != nil {
		t.Fatal(err)
	}
	want["fp-0002"] = ng
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conv := obs.Default().Counter("bicc_csr_conversions_total", "")
	before := conv.Load()
	s2, rec := openT(t, Config{Dir: dir})
	defer s2.Close()
	if n := conv.Load() - before; n != 4 {
		t.Fatalf("replay made %d conversions, want 4", n)
	}
	if rec.DroppedRecords != 0 || rec.WALRecords != 7 {
		t.Fatalf("recovery: %d dropped, %d replayed, want 0 and 7", rec.DroppedRecords, rec.WALRecords)
	}
	sameGraphs(t, rec, want)
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
		if err := s2.AppendAdd(GraphRecord{FP: "fp-after", Name: "after", Graph: testGraph(t, 999)}); err != nil {
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
	if err := s.AppendAdd(GraphRecord{FP: "fp-d", Name: "delta target", Graph: g}); err != nil {
		t.Fatal(err)
	}
	// Batch 1: insert (3,5) growing the graph, delete (2,0).
	g1, err := ReplayDelta(g, DeltaRecord{NewN: 6, Ops: []graph.Delta{
		{Del: false, U: 3, V: 5}, {Del: true, U: 2, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(DeltaRecord{ID: "fp-d", Gen: 1, NewN: 6, PostFP: "cfp-1",
		Ops: []graph.Delta{{Del: false, U: 3, V: 5}, {Del: true, U: 2, V: 0}}}, g1); err != nil {
		t.Fatal(err)
	}
	// Batch 2: re-insert (2,0) — lands at the end of the edge list.
	g2, err := ReplayDelta(g1, DeltaRecord{NewN: 6, Ops: []graph.Delta{{Del: false, U: 2, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(DeltaRecord{ID: "fp-d", Gen: 2, NewN: 6, PostFP: "cfp-2",
		Ops: []graph.Delta{{Del: false, U: 2, V: 0}}}, g2); err != nil {
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

// BenchmarkReplayDelta replays one local 16-delta record the way boot
// replay and the standby apply it — bicc.ApplyDeltas, with no check after —
// on block chains of 5000 and 50000 8-cliques. The record deletes 8 edges
// of the clique in the middle of the chain and inserts 8 absent edges
// around it.
func BenchmarkReplayDelta(b *testing.B) {
	for _, blocks := range []int{5000, 50000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			el := gen.BlockChain(blocks, 8)
			g, err := bicc.NewGraph(int(el.N), el.Edges)
			if err != nil {
				b.Fatal(err)
			}
			mid := 28 * (blocks / 2) // the first edge of the middle clique
			rec := DeltaRecord{ID: "chain", Gen: 1, NewN: el.N}
			for i := 0; i < 8; i++ {
				e := el.Edges[mid+3*i]
				rec.Ops = append(rec.Ops, graph.Delta{Del: true, U: e.U, V: e.V})
			}
			lo := el.Edges[mid].U
			for i := int32(0); i < 8; i++ {
				rec.Ops = append(rec.Ops, graph.Delta{U: lo - 20 + i, V: lo + 20 + i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReplayDelta(g, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	if err := s.AppendAdd(GraphRecord{FP: "fp-new", Name: "new", Graph: g}); err != nil {
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
