package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// stagedAux is the paper's G′ = (V', E') written out: V' has one vertex
// per edge of G (tree edge (u,p(u)) ↦ u; the j-th nontree edge ↦ n+j), and
// E' connects edges of G related under R'c.
type stagedAux struct {
	n     int32        // |V'| = n + #nontree
	edges []graph.Edge // E'
	ntIdx []int32      // nontree edge i of G ↦ aux vertex n + ntIdx[i]
	// condCount[k] is the number of R'c pairs contributed by condition k+1.
	condCount [3]int
}

// vertex returns the G′ vertex of edge i of edges.
func (a *stagedAux) vertex(edges []graph.Edge, isTree []bool, td *treecomp.TreeData, i int) int32 {
	if !isTree[i] {
		return td.N + a.ntIdx[i]
	}
	if u := edges[i].U; td.Parent[u] == edges[i].V {
		return u
	}
	return edges[i].V
}

// buildAuxStaged is Algorithm 1 as the paper lays it out: test the three
// R'c conditions into a 3m-slot staging area (slots [0,m) for condition 1,
// [m,2m) for condition 2, [2m,3m) for condition 3) and compact the staged
// pairs in slot order. It allocates about 67m bytes and is the reference
// the mask over G is held to.
func buildAuxStaged(p int, edges []graph.Edge, isTree []bool, td *treecomp.TreeData, low, high []int32) *stagedAux {
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
	aux := &stagedAux{n: n + numNontree, ntIdx: ntIdx}
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

// maskConds returns the per-condition pair counts the mask stands for:
// one condition-1 pair per nontree edge TV runs on (G's, or only forest's
// when it is non-nil), and the masked nontree and tree edges for
// conditions 2 and 3.
func maskConds(isTree, mask []bool, forest []int32) [3]int {
	var c [3]int
	for i, tree := range isTree {
		switch {
		case tree && mask[i]:
			c[2]++
		case !tree:
			c[0]++
			if mask[i] {
				c[1]++
			}
		}
	}
	if forest != nil {
		c[0] = len(forest)
	}
	return c
}

// stagedLabels returns each edge's label in UnionFind over the staged G′,
// read at the edge's G′ vertex, the labels by G′ vertex, and the staged
// per-condition counts.
func stagedLabels(edges []graph.Edge, isTree []bool, td *treecomp.TreeData, low, high []int32) (labels, uf []int32, cond [3]int) {
	aux := buildAuxStaged(1, edges, isTree, td, low, high)
	uf = conncomp.UnionFind(aux.n, aux.edges)
	labels = make([]int32, len(edges))
	for i := range labels {
		labels[i] = uf[aux.vertex(edges, isTree, td, i)]
	}
	return labels, uf, aux.condCount
}

// numberTree numbers f as core.Custom does: treecomp.Order, then
// LevelOrder.Number.
func numberTree(f *spantree.RootedForest) (*treecomp.TreeData, error) {
	l, err := treecomp.Order(nil, f)
	if err != nil {
		return nil, err
	}
	return l.Number(nil)
}

// auxInputs returns what Label-edge reads for g: a BFS spanning forest's
// tree mask, its tree computations and low/high.
func auxInputs(t testing.TB, g *graph.EdgeList) ([]bool, *treecomp.TreeData, []int32, []int32) {
	t.Helper()
	f := spantree.BFS(1, graph.ToCSR(1, g))
	isTree := f.TreeEdgeMark(1, len(g.Edges))
	td, err := numberTree(f)
	if err != nil {
		t.Fatal(err)
	}
	low, high := treecomp.LowHigh(1, td, g.Edges, isTree)
	return isTree, td, low, high
}

// TestBuildAuxMatchesStaged holds Label-edge's mask over G, the masked
// Link and the label pass to the staged G′: on every generator family, on
// edgeless graphs and with more workers than edges, each edge's label must
// equal UnionFind's over the staged G′ read at the edge's G′ vertex (both
// are min-id labels, and a component's minimum is never a pendant), and
// the mask must stand for the staged per-condition counts. The trees are
// BFS trees, so each graph runs three ways: testing every nontree edge,
// skipping the test (bfs), and as TV-filter runs it, against the staged G′
// of T ∪ F with each filtered edge read at its larger-preorder endpoint's
// tree edge (condition 1).
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
	type variant struct {
		name      string
		bfs       bool
		forest    []int32
		low, high []int32
		want      []int32
		cond      [3]int
	}
	for name, g := range families {
		isTree, td, low, high := auxInputs(t, g)
		want, _, cond := stagedLabels(g.Edges, isTree, td, low, high)
		tf := variant{name: "T∪F", bfs: true, forest: NontreeForest(nil, 1, g.N, g.Edges, isTree)}
		var reduced []graph.Edge // F, then T
		var redTree []bool
		var redID []int32
		for _, id := range tf.forest {
			reduced, redTree, redID = append(reduced, g.Edges[id]), append(redTree, false), append(redID, id)
		}
		tf.low, tf.high = treecomp.LowHigh(1, td, reduced, redTree)
		for i, e := range g.Edges {
			if isTree[i] {
				reduced, redTree, redID = append(reduced, e), append(redTree, true), append(redID, int32(i))
			}
		}
		redLabels, uf, redCond := stagedLabels(reduced, redTree, td, tf.low, tf.high)
		tf.cond = redCond
		tf.want = make([]int32, len(g.Edges))
		for i, e := range g.Edges { // condition 1 for the filtered edges
			u := e.U
			if td.Pre[e.V] > td.Pre[u] {
				u = e.V
			}
			tf.want[i] = uf[u]
		}
		for j, id := range redID {
			tf.want[id] = redLabels[j]
		}
		for _, v := range []variant{
			{"G", false, nil, low, high, want, cond},
			{"G, bfs", true, nil, low, high, want, cond},
			tf,
		} {
			for _, p := range []int{1, 2, 3, 8} {
				at := fmt.Sprintf("%s (m=%d) %s p=%d", name, len(g.Edges), v.name, p)
				mask := auxMask(nil, p, g.Edges, isTree, td, v.low, v.high, v.bfs, v.forest)
				if got := maskConds(isTree, mask, v.forest); got != v.cond {
					t.Fatalf("%s: mask stands for condition counts %v, staged %v", at, got, v.cond)
				}
				labels := conncomp.ShiloachVishkinC(nil, p, g.N, g.Edges, mask)
				if got := edgeBlocks(nil, p, g.Edges, mask, td.Pre, labels); !slices.Equal(got, v.want) {
					t.Fatalf("%s: edge labels differ from UnionFind over the staged G'\n got %v\nwant %v", at, got, v.want)
				}
			}
		}
	}
}

// TestBuildAuxAllocatesExactly bounds what Label-edge allocates: the mask,
// one byte per edge of G, plus the heap's rounding of it to whole pages
// (8 KiB) and a per-worker constant. The staged writer allocates about 67
// bytes per edge. TotalAlloc also counts what the runtime allocates in the
// window, such as the m and g0 (about 6 KB) of an OS thread that
// ReadMemStats's restart of the world starts on a loaded machine. That
// only adds, so each worker count is measured three times and the least
// is auxMask's own.
func TestBuildAuxAllocatesExactly(t *testing.T) {
	g := gen.RandomConnected(20000, 100000, 6)
	isTree, td, low, high := auxInputs(t, g)
	m := len(g.Edges)
	for _, p := range []int{1, 2, 4} {
		got := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			auxMask(nil, p, g.Edges, isTree, td, low, high, false, nil)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		limit := uint64(m + 8<<10 + 1024*p)
		if got > limit {
			t.Errorf("p=%d: auxMask allocated %d bytes (%.2f per edge), want at most m + 8 KiB + 1024p = %d",
				p, got, float64(got)/float64(m), limit)
		}
	}
}
