package incr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bicc"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// chainState builds a State over gen.BlockChain(blocks, 8): cliques of 8
// vertices in a row, consecutive cliques sharing one cut vertex.
func chainState(tb testing.TB, blocks int) *State {
	tb.Helper()
	el := gen.BlockChain(blocks, 8)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := NewState(g, res)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// presentEdges returns the set of the keys of edges.
func presentEdges(edges []graph.Edge) map[uint64]bool {
	p := make(map[uint64]bool, len(edges))
	for _, e := range edges {
		p[graph.CanonKey(e.U, e.V)] = true
	}
	return p
}

// localEditor draws local batches of 16 deltas, the shape of a client
// editing one neighbourhood at a time: each delta deletes, with probability
// 1/2, the oldest edge an earlier batch inserted, and otherwise inserts an
// absent edge between two ids of a 64-id window. present is the state's
// edge keys, built from st.Edges() on the first call and moved by each
// batch, which the caller must apply.
type localEditor struct {
	st      *State
	rng     *rand.Rand
	own     []graph.Edge
	present map[uint64]bool
}

func (ed *localEditor) next(lo int32) []graph.Delta {
	if ed.present == nil {
		ed.present = presentEdges(ed.st.Edges())
	}
	var out []graph.Delta
	older := len(ed.own)
	for len(out) < 16 {
		if older > 0 && ed.rng.Intn(2) == 0 {
			e := ed.own[0]
			ed.own = ed.own[1:]
			older--
			out = append(out, graph.Delta{Del: true, U: e.U, V: e.V})
			continue
		}
		u, v := lo+ed.rng.Int31n(64), lo+ed.rng.Int31n(64)
		key := graph.CanonKey(u, v)
		if u == v || ed.present[key] {
			continue
		}
		ed.present[key] = true
		ed.own = append(ed.own, graph.Edge{U: u, V: v})
		out = append(out, graph.Delta{U: u, V: v})
	}
	// A deleted edge stays present until the batch ends, so no batch
	// re-inserts an edge it deletes.
	for _, d := range out {
		if d.Del {
			delete(ed.present, graph.CanonKey(d.U, d.V))
		}
	}
	return out
}

var seqRun = engineRun(bicc.Sequential)

// TestApplyAllocsDoNotScaleWithGraph: committing one local rebuild batch
// must allocate about as many objects on a chain of 5000 blocks as on one of
// 500. The batches are the same relative to the middle of the chain, so both
// chains rebuild regions of the same size; only the untouched rest differs.
func TestApplyAllocsDoNotScaleWithGraph(t *testing.T) {
	allocs := func(blocks int) uint64 {
		st := chainState(t, blocks)
		ed := &localEditor{st: st, rng: rand.New(rand.NewSource(1))}
		best := ^uint64(0)
		for i := 0; i < 4; i++ {
			deltas := ed.next(int32(7 * (blocks/2 + 10*i)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stats, err := apply(st, deltas, Config{}, seqRun)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Mode != ModeRebuild {
				t.Fatalf("chain of %d blocks, batch %d: mode %v, want rebuild", blocks, i, stats.Mode)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("objects per local batch: %d on 500 blocks, %d on 5000", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("a local batch allocates %d objects on 5000 blocks, %d on 500: more than 1.5x", large, small)
	}
}

// churnBatch deletes d random live edges and inserts d absent ones: the
// first re-inserts the first deleted edge (delete then re-insert), one may
// grow the graph by a vertex.
func churnBatch(rng *rand.Rand, st *State, d int) []graph.Delta {
	edges := st.Edges()
	present := presentEdges(edges)
	var out []graph.Delta
	gone := map[uint64]bool{}
	for len(out) < d && len(gone) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if key := graph.CanonKey(e.U, e.V); !gone[key] {
			gone[key] = true
			out = append(out, graph.Delta{Del: true, U: e.U, V: e.V})
		}
	}
	out = append(out, graph.Delta{U: out[0].V, V: out[0].U})
	added := map[uint64]bool{graph.CanonKey(out[0].U, out[0].V): true}
	for ins := 1; ins < d; {
		span := st.N()
		if ins == d-1 && rng.Intn(2) == 0 {
			span++ // a brand-new vertex
		}
		u, v := int32(rng.Intn(span)), int32(rng.Intn(span))
		key := graph.CanonKey(u, v)
		if u == v || added[key] || (present[key] && !gone[key]) {
			continue
		}
		added[key] = true
		out = append(out, graph.Delta{U: u, V: v})
		ins++
	}
	return out
}

// TestDifferentialUnderChurn churns a small graph for 50 batches of 8
// deletes and 8 inserts, delete-then-reinsert and vertex growth included,
// so that most of its edges are replaced; after every batch the labels
// must be byte-identical to a from-scratch run, for every engine.
func TestDifferentialUnderChurn(t *testing.T) {
	for _, algo := range diffAlgorithms {
		t.Run(algo.String(), func(t *testing.T) {
			fam := diffFamily{"random", gen.RandomConnected(40, 90, 9)}
			_, st := newTestState(t, fam, algo)
			rng := rand.New(rand.NewSource(int64(algo) + 100))
			for round := 0; round < 50; round++ {
				if _, err := apply(st, churnBatch(rng, st, 8), Config{Threshold: 0.6}, engineRun(algo)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				assertStateEqualsScratch(t, st, algo)
			}
		})
	}
}

// BenchmarkApplyLocalBatch prepares and commits one local 16-delta batch
// per iteration on block chains of growing length; the region stays the
// same size, so time and allocations should not grow with the chain.
func BenchmarkApplyLocalBatch(b *testing.B) {
	for _, blocks := range []int{500, 5000, 50000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			st := chainState(b, blocks)
			ed := &localEditor{st: st, rng: rand.New(rand.NewSource(1))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				deltas := ed.next(ed.rng.Int31n(int32(st.N()) - 64))
				b.StartTimer()
				batch, err := st.Prepare(deltas)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Apply(context.Background(), batch, Config{}, seqRun); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
