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

// localEditor draws local batches of 16 deltas, the shape of a client
// editing one neighbourhood at a time: each delta deletes, with probability
// 1/2, the oldest edge an earlier batch inserted, and otherwise inserts an
// absent edge between two ids of a 64-id window.
type localEditor struct {
	st  *State
	rng *rand.Rand
	own []graph.Edge
}

func (ed *localEditor) next(lo int32) []Delta {
	var out []Delta
	older := len(ed.own)
	fresh := map[uint64]bool{}
	for len(out) < 16 {
		if older > 0 && ed.rng.Intn(2) == 0 {
			e := ed.own[0]
			ed.own = ed.own[1:]
			older--
			out = append(out, Delta{OpDelete, e.U, e.V})
			continue
		}
		u, v := lo+ed.rng.Int31n(64), lo+ed.rng.Int31n(64)
		key := graph.CanonKey(u, v)
		if _, present := ed.st.slot[key]; u == v || present || fresh[key] {
			continue
		}
		fresh[key] = true
		ed.own = append(ed.own, graph.Edge{U: u, V: v})
		out = append(out, Delta{OpInsert, u, v})
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
func churnBatch(rng *rand.Rand, st *State, d int) []Delta {
	edges := st.Edges()
	var out []Delta
	gone := map[uint64]bool{}
	for len(out) < d && len(gone) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if key := graph.CanonKey(e.U, e.V); !gone[key] {
			gone[key] = true
			out = append(out, Delta{OpDelete, e.U, e.V})
		}
	}
	out = append(out, Delta{OpInsert, out[0].V, out[0].U})
	added := map[uint64]bool{graph.CanonKey(out[0].U, out[0].V): true}
	for ins := 1; ins < d; {
		span := st.N()
		if ins == d-1 && rng.Intn(2) == 0 {
			span++ // a brand-new vertex
		}
		u, v := int32(rng.Intn(span)), int32(rng.Intn(span))
		key := graph.CanonKey(u, v)
		if _, present := st.slot[key]; u == v || added[key] || (present && !gone[key]) {
			continue
		}
		added[key] = true
		out = append(out, Delta{OpInsert, u, v})
		ins++
	}
	return out
}

// checkSlots asserts the key map's invariant: every live edge's key maps to
// a slot that points back at the edge, and no other key is mapped.
func checkSlots(t *testing.T, st *State) {
	t.Helper()
	if len(st.slot) != len(st.edges) {
		t.Fatalf("key map has %d entries for %d edges", len(st.slot), len(st.edges))
	}
	for i, e := range st.edges {
		sl, ok := st.slot[graph.CanonKey(e.U, e.V)]
		if !ok || st.slotPos[sl] != int32(i) {
			t.Fatalf("edge %d (%d,%d): slot %d ok=%v points at %d", i, e.U, e.V, sl, ok, st.slotPos[sl])
		}
	}
}

// TestDifferentialAcrossSlotCompaction churns a small graph until its dead
// slots have outnumbered the live ones, and been compacted away, several
// times; after every batch the key map must be exact and the labels
// byte-identical to a from-scratch run, for every engine.
func TestDifferentialAcrossSlotCompaction(t *testing.T) {
	for _, algo := range diffAlgorithms {
		t.Run(algo.String(), func(t *testing.T) {
			fam := diffFamily{"random", gen.RandomConnected(40, 90, 9)}
			_, st := newTestState(t, fam, algo)
			rng := rand.New(rand.NewSource(int64(algo) + 100))
			compactions := 0
			for round := 0; round < 50; round++ {
				slots := len(st.slotPos)
				if _, err := apply(st, churnBatch(rng, st, 8), Config{Threshold: 0.6}, engineRun(algo)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if len(st.slotPos) < slots {
					compactions++
				}
				checkSlots(t, st)
				assertStateEqualsScratch(t, st, algo)
			}
			if compactions < 3 {
				t.Fatalf("%d slot compactions in 50 batches, want at least 3", compactions)
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
