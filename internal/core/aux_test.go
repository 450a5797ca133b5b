package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// buildAuxStaged is Algorithm 1 as the paper lays it out: test the three
// R'c conditions into a 3m-slot staging area (slots [0,m) for condition 1,
// [m,2m) for condition 2, [2m,3m) for condition 3) and compact the staged
// pairs in slot order. It allocates about 67m bytes; buildAux must produce
// the same G' at its exact size.
func buildAuxStaged(p int, edges []graph.Edge, isTree []bool, td *treecomp.TreeData, low, high []int32) *auxGraph {
	n := td.N
	m := len(edges)
	ntIdx := make([]int32, m)
	par.For(p, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !isTree[i] {
				ntIdx[i] = 1
			}
		}
	})
	numNontree := prefix.ExclusiveSum32(p, ntIdx)
	aux := &auxGraph{n: n + numNontree, ntIdx: ntIdx}
	staged := make([]graph.Edge, 3*m)
	valid := make([]bool, 3*m)
	par.For(p, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if isTree[i] {
				u, v := e.U, e.V
				if td.Parent[u] != v {
					u, v = v, u
				}
				if !td.IsRoot(v) && (low[u] < td.Pre[v] || high[u] >= td.Pre[v]+td.Size[v]) {
					staged[2*m+i] = graph.Edge{U: u, V: v}
					valid[2*m+i] = true
				}
				continue
			}
			u, v := e.U, e.V
			if td.Pre[u] < td.Pre[v] {
				u, v = v, u
			}
			staged[i] = graph.Edge{U: u, V: n + ntIdx[i]}
			valid[i] = true
			if !td.Related(u, v) {
				staged[m+i] = graph.Edge{U: u, V: v}
				valid[m+i] = true
			}
		}
	})
	for s, ok := range valid {
		if ok {
			aux.edges = append(aux.edges, staged[s])
			aux.condCount[s/max(m, 1)]++
		}
	}
	return aux
}

// auxInputs returns what Label-edge reads for g: a BFS spanning forest's
// tree mask, its tree computations and low/high.
func auxInputs(t testing.TB, g *graph.EdgeList) ([]bool, *treecomp.TreeData, []int32, []int32) {
	t.Helper()
	f := spantree.BFS(1, graph.ToCSR(1, g))
	isTree := f.TreeEdgeMark(1, len(g.Edges))
	td, err := treecomp.Compute(1, eulertour.DFSOrder(1, g.Edges, f))
	if err != nil {
		t.Fatal(err)
	}
	low, high := treecomp.LowHigh(1, td, g.Edges, isTree)
	return isTree, td, low, high
}

// TestBuildAuxMatchesStaged checks that the exact-size Label-edge emits the
// staged reference's G' edge for edge — so Shiloach–Vishkin sees the same
// sequence — with the same vertex count, nontree numbering and
// per-condition counts, on every generator family, on edgeless graphs and
// with more workers than edges.
func TestBuildAuxMatchesStaged(t *testing.T) {
	families := map[string]*graph.EdgeList{
		"random":        gen.Random(300, 900, 1),
		"random-conn":   gen.RandomConnected(300, 1200, 2),
		"mesh":          gen.Mesh(12, 15),
		"torus":         gen.Torus(10, 12),
		"chain":         gen.Chain(40),
		"cycle":         gen.Cycle(30),
		"star":          gen.Star(25),
		"dense":         gen.Dense(40, 0.5, 3),
		"binary-tree":   gen.BinaryTree(63),
		"caterpillar":   gen.Caterpillar(20, 3),
		"block-chain":   gen.BlockChain(12, 5),
		"disconnected":  gen.Disconnected(gen.Cycle(5), gen.Chain(4), gen.Mesh(3, 3)),
		"pref-attach":   gen.PreferentialAttachment(200, 3, 4),
		"geometric":     gen.Geometric(200, 0.15, 5),
		"single-edge":   gen.Chain(2),
		"two-edges":     gen.Chain(3),
		"edgeless":      {N: 6},
		"empty":         {N: 0},
		"isolated+edge": {N: 4, Edges: []graph.Edge{{U: 1, V: 2}}},
	}
	for name, g := range families {
		isTree, td, low, high := auxInputs(t, g)
		want := buildAuxStaged(1, g.Edges, isTree, td, low, high)
		for _, p := range []int{1, 2, 3, 8} {
			got := buildAux(p, g.Edges, isTree, td, low, high)
			at := fmt.Sprintf("%s (m=%d) p=%d", name, len(g.Edges), p)
			if got.n != want.n || got.condCount != want.condCount {
				t.Fatalf("%s: |V'|=%d condCount=%v, staged %d %v", at, got.n, got.condCount, want.n, want.condCount)
			}
			if !slices.Equal(got.edges, want.edges) {
				t.Fatalf("%s: E' differs from the staged writer's\n got %v\nwant %v", at, got.edges, want.edges)
			}
			for i, tree := range isTree {
				if !tree && got.ntIdx[i] != want.ntIdx[i] {
					t.Fatalf("%s: nontree edge %d numbered %d, staged %d", at, i, got.ntIdx[i], want.ntIdx[i])
				}
			}
		}
	}
}

// TestBuildAuxAllocatesExactly bounds what Label-edge allocates: the
// nontree numbering (4 bytes per edge) and G' itself (8 bytes per pair),
// plus the heap's rounding of those two arrays to whole pages (16 KiB) and
// a per-worker constant. The staged writer allocated about 67 bytes per
// edge.
func TestBuildAuxAllocatesExactly(t *testing.T) {
	g := gen.RandomConnected(20000, 100000, 6)
	isTree, td, low, high := auxInputs(t, g)
	m := len(g.Edges)
	for _, p := range []int{1, 2, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		aux := buildAux(p, g.Edges, isTree, td, low, high)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := uint64(4*m + 8*len(aux.edges) + 16<<10 + 1024*p)
		if got > limit {
			t.Errorf("p=%d: buildAux allocated %d bytes (%.1f per edge), want at most 4m + 8|E'| + 16 KiB + 1024p = %d",
				p, got, float64(got)/float64(m), limit)
		}
	}
}
