package incr

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"bicc"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// The incremental differential harness: for every graph family and every
// engine, any randomized mutation sequence applied through State must yield
// labels — and every label-derived query answer — byte-identical to running
// that engine from scratch on the final edge list. "Byte-identical" is
// literal: labels are compared element-wise and derived views as marshaled
// JSON.

type diffFamily struct {
	name string
	el   *graph.EdgeList
}

func diffFamilies() []diffFamily {
	return []diffFamily{
		{"random", gen.RandomConnected(180, 520, 42)},
		{"torus", gen.Torus(10, 12)},
		{"star-chain", gen.Caterpillar(30, 4)},
	}
}

var diffAlgorithms = bicc.Algorithms()

// engineRun returns a Recompute bound to one algorithm.
func engineRun(algo bicc.Algorithm) Recompute {
	return func(ctx context.Context, g *bicc.Graph) (*bicc.Result, error) {
		return bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: algo, Procs: 2})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// apply prepares and commits one batch.
func apply(st *State, deltas []graph.Delta, cfg Config, run Recompute) (*ApplyStats, error) {
	b, err := st.Prepare(deltas)
	if err != nil {
		return nil, err
	}
	return st.Apply(context.Background(), b, cfg, run)
}

// newTestState builds a State for fam using algo.
func newTestState(t *testing.T, fam diffFamily, algo bicc.Algorithm) (*bicc.Graph, *State) {
	t.Helper()
	g, err := bicc.NewGraph(int(fam.el.N), fam.el.Edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
	if err != nil {
		t.Fatalf("BiconnectedComponents(%v): %v", algo, err)
	}
	st, err := NewState(g, res)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return g, st
}

// assertStateEqualsScratch compares the maintained state against a
// from-scratch engine run on the state's own edge list: labels elementwise,
// then every query answer the service derives from them.
func assertStateEqualsScratch(t *testing.T, st *State, algo bicc.Algorithm) {
	t.Helper()
	g, err := bicc.NewGraph(st.N(), st.Edges())
	if err != nil {
		t.Fatalf("state graph invalid: %v", err)
	}
	want, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
	if err != nil {
		t.Fatalf("scratch %v: %v", algo, err)
	}
	if st.NumComponents() != want.NumComponents {
		t.Fatalf("NumComponents=%d, scratch %d", st.NumComponents(), want.NumComponents)
	}
	labels := st.Labels()
	for i, c := range want.EdgeComponent {
		if labels[i] != c {
			t.Fatalf("edge %d labeled %d, scratch %d", i, labels[i], c)
		}
	}
	// Query answers: reconstruct a Result from the maintained labels (what
	// the service serves) and compare each view byte-for-byte.
	got, err := bicc.ReconstructResult(g, want.Algorithm, labels)
	if err != nil {
		t.Fatalf("ReconstructResult: %v", err)
	}
	if a, b := mustJSON(t, got.ArticulationPoints()), mustJSON(t, want.ArticulationPoints()); a != b {
		t.Fatalf("articulation %s, scratch %s", a, b)
	}
	if a, b := mustJSON(t, got.Bridges()), mustJSON(t, want.Bridges()); a != b {
		t.Fatalf("bridges %s, scratch %s", a, b)
	}
	if a, b := mustJSON(t, got.Components()), mustJSON(t, want.Components()); a != b {
		t.Fatalf("components %s, scratch %s", a, b)
	}
	gt, wt := got.BlockCutTree(), want.BlockCutTree()
	if a, b := mustJSON(t, gt.CutVertices()), mustJSON(t, wt.CutVertices()); a != b {
		t.Fatalf("cut vertices %s, scratch %s", a, b)
	}
	for v := int32(0); v < int32(st.N()); v++ {
		if a, b := mustJSON(t, gt.BlocksOfVertex(v)), mustJSON(t, wt.BlocksOfVertex(v)); a != b {
			t.Fatalf("blocks of %d: %s, scratch %s", v, a, b)
		}
		if a, b := mustJSON(t, st.BlocksOfVertex(v)), mustJSON(t, wt.BlocksOfVertex(v)); a != b {
			t.Fatalf("routing index blocks of %d: %s, scratch %s", v, a, b)
		}
	}
	for b := int32(0); b < int32(st.NumComponents()); b++ {
		if x, y := mustJSON(t, gt.VerticesOfBlock(b)), mustJSON(t, wt.VerticesOfBlock(b)); x != y {
			t.Fatalf("vertices of block %d: %s, scratch %s", b, x, y)
		}
	}
}

// randomBatch builds a batch of nd random deltas against st: a mix of
// absorbable inserts (two vertices of one block with no edge yet),
// arbitrary inserts (possibly cross-block, cross-component, or to a brand
// new vertex), and deletes of random existing edges.
func randomBatch(rng *rand.Rand, st *State, nd int) []graph.Delta {
	present := make(map[uint64]bool, len(st.Edges()))
	for _, e := range st.Edges() {
		present[graph.CanonKey(e.U, e.V)] = true
	}
	var out []graph.Delta
	edges := append([]graph.Edge(nil), st.Edges()...)
	for len(out) < nd {
		switch rng.Intn(4) {
		case 0: // absorbable insert: same-block endpoint pair without an edge
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			f := edges[rng.Intn(len(edges))]
			for _, u := range [2]int32{e.U, e.V} {
				for _, v := range [2]int32{f.U, f.V} {
					if u != v && st.sharedBlock(u, v) >= 0 && !present[graph.CanonKey(u, v)] {
						present[graph.CanonKey(u, v)] = true
						out = append(out, graph.Delta{U: u, V: v})
						goto next
					}
				}
			}
		case 1: // arbitrary insert, sometimes to a fresh vertex
			u := int32(rng.Intn(st.N()))
			v := int32(rng.Intn(st.N() + 3)) // may exceed N: vertex growth
			if u == v || present[graph.CanonKey(u, v)] {
				continue
			}
			present[graph.CanonKey(u, v)] = true
			out = append(out, graph.Delta{U: u, V: v})
		default: // delete a random surviving edge
			if len(edges) == 0 {
				continue
			}
			i := rng.Intn(len(edges))
			e := edges[i]
			if !present[graph.CanonKey(e.U, e.V)] {
				continue
			}
			present[graph.CanonKey(e.U, e.V)] = false
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			out = append(out, graph.Delta{Del: true, U: e.U, V: e.V})
		}
	next:
	}
	return out
}

// TestDifferentialIncrementalEqualsScratch is the core harness: 3 families
// × every engine × randomized mutation sequences, byte-equal answers after
// every batch, with all three apply modes exercised across the run.
func TestDifferentialIncrementalEqualsScratch(t *testing.T) {
	modes := map[Mode]int{}
	for _, fam := range diffFamilies() {
		for _, algo := range diffAlgorithms {
			t.Run(fmt.Sprintf("%s/%s", fam.name, algo), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(fam.name))*1000 + int64(algo)))
				_, st := newTestState(t, fam, algo)
				cfg := Config{Threshold: 0.6}
				for round := 0; round < 8; round++ {
					batch := randomBatch(rng, st, 1+rng.Intn(6))
					stats, err := apply(st, batch, cfg, engineRun(algo))
					if err != nil {
						t.Fatalf("round %d: Apply: %v", round, err)
					}
					modes[stats.Mode]++
					assertStateEqualsScratch(t, st, algo)
				}
			})
		}
	}
	if modes[ModeAbsorb] == 0 || modes[ModeRebuild] == 0 {
		t.Fatalf("mutation mix did not exercise both absorb and rebuild: %v", modes)
	}
}

// TestDifferentialThresholdDegradesToFull proves the size-ratio escape
// hatch: with a tiny threshold every structural batch goes ModeFull, and
// answers still match scratch.
func TestDifferentialThresholdDegradesToFull(t *testing.T) {
	fam := diffFamilies()[0]
	_, st := newTestState(t, fam, bicc.Sequential)
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Threshold: 1e-9}
	fulls := 0
	for round := 0; round < 5; round++ {
		batch := randomBatch(rng, st, 4)
		stats, err := apply(st, batch, cfg, engineRun(bicc.Sequential))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.Mode == ModeFull {
			fulls++
		}
		assertStateEqualsScratch(t, st, bicc.Sequential)
	}
	if fulls == 0 {
		t.Fatal("threshold 1e-9 never degraded to a full recompute")
	}
}

// TestDifferentialHostileBatches aims adversarial mixes at the planner's
// soundness proof: multi-bridge cycles across components, delete+reinsert,
// deletes splitting a block an absorbable insert targets, chains through
// brand-new vertices.
func TestDifferentialHostileBatches(t *testing.T) {
	// Two 4-cycles joined by nothing: inserting two cross-component edges
	// in one batch creates one merged block through both bridges.
	base := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 4},
	}
	g, err := bicc.NewGraph(8, base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(g, res)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]graph.Delta{
		// Two cross-component bridges forming a cycle: blocks on both sides
		// must merge (the aux-cycle case the Steiner closure exists for).
		{{U: 0, V: 4}, {U: 2, V: 6}},
		// Delete an edge of the merged block, then an intra-block insert
		// whose target block just went dirty (demotion to region edge).
		{{Del: true, U: 0, V: 1}, {U: 1, V: 3}},
		// Chain through two brand-new vertices closing a cycle.
		{{U: 1, V: 8}, {U: 8, V: 9}, {U: 9, V: 5}},
		// Delete then re-insert the same edge in one batch.
		{{Del: true, U: 2, V: 3}, {U: 2, V: 3}},
	}
	for bi, batch := range batches {
		if _, err := apply(st, batch, Config{}, engineRun(bicc.Sequential)); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		assertStateEqualsScratch(t, st, bicc.Sequential)
		// The same sequence must hold for every engine's numbering.
		for _, algo := range diffAlgorithms {
			assertStateEqualsScratch(t, st, algo)
		}
	}
}
