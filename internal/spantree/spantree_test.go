package spantree

import (
	"fmt"
	"math/rand"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// checkForestEdges verifies that the edge set is acyclic and has exactly
// n - #components edges (hence spans every component).
func checkForestEdges(t *testing.T, g *graph.EdgeList, treeEdges []int32) {
	t.Helper()
	comps := conncomp.Count(conncomp.UnionFind(g.N, g.Edges))
	if len(treeEdges) != int(g.N)-comps {
		t.Fatalf("forest has %d edges, want n-#comp = %d", len(treeEdges), int(g.N)-comps)
	}
	// Acyclic: union-find over just the tree edges never joins joined sets.
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, id := range treeEdges {
		e := g.Edges[id]
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			t.Fatalf("tree edge %d (%d,%d) creates a cycle", id, e.U, e.V)
		}
		parent[ru] = rv
	}
}

// checkRooted verifies parent-pointer consistency: every non-root reaches a
// root, ParentEdge matches Parent, and tree edges form a spanning forest.
func checkRooted(t *testing.T, g *graph.EdgeList, f *RootedForest) {
	t.Helper()
	var tree []int32
	for v := int32(0); v < f.N; v++ {
		if f.IsRoot(v) {
			if f.ParentEdge[v] != -1 {
				t.Fatalf("root %d has parent edge %d", v, f.ParentEdge[v])
			}
			continue
		}
		id := f.ParentEdge[v]
		if id < 0 || int(id) >= len(g.Edges) {
			t.Fatalf("vertex %d parent edge %d out of range", v, id)
		}
		e := g.Edges[id]
		p := f.Parent[v]
		if !((e.U == v && e.V == p) || (e.V == v && e.U == p)) {
			t.Fatalf("vertex %d: parent %d but edge %d = %v", v, p, id, e)
		}
		tree = append(tree, id)
	}
	checkForestEdges(t, g, tree)
	// Every vertex must reach a listed root: walk each chain until it meets
	// a vertex already known to reach one, so the check stays linear.
	const (
		unseen = iota
		onPath
		reaches
	)
	state := make([]uint8, f.N)
	for _, r := range f.Roots {
		if !f.IsRoot(r) {
			t.Fatalf("listed root %d has parent %d", r, f.Parent[r])
		}
		state[r] = reaches
	}
	var path []int32
	for v := int32(0); v < f.N; v++ {
		path = path[:0]
		x := v
		for state[x] == unseen {
			state[x] = onPath
			path = append(path, x)
			x = f.Parent[x]
		}
		if state[x] == onPath {
			t.Fatalf("vertex %d: parent chain does not reach a listed root", v)
		}
		for _, y := range path {
			state[y] = reaches
		}
	}
}

func testGraphs() map[string]*graph.EdgeList {
	return map[string]*graph.EdgeList{
		"triangle":     gen.Cycle(3),
		"chain":        gen.Chain(50),
		"star":         gen.Star(20),
		"mesh":         gen.Mesh(8, 9),
		"random":       gen.RandomConnected(300, 900, 1),
		"dense":        gen.Dense(40, 0.7, 2),
		"disconnected": gen.Disconnected(gen.Cycle(5), gen.Chain(7), gen.Star(4)),
		"single":       {N: 1},
		"empty":        {N: 0},
		"isolated":     {N: 6},
		"blockchain":   gen.BlockChain(4, 4),
	}
}

func TestSVSpanningForest(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{1, 4} {
			f := SV(p, g.N, g.Edges)
			checkForestEdges(t, g, f.TreeEdges)
			_ = name
		}
	}
}

func TestWorkStealingRootedForest(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{1, 2, 4} {
			c := graph.ToCSR(p, g)
			f := WorkStealing(p, c)
			checkRooted(t, g, f)
			comps := conncomp.Count(conncomp.UnionFind(g.N, g.Edges))
			if len(f.Roots) != comps {
				t.Errorf("%s p=%d: %d roots, want %d", name, p, len(f.Roots), comps)
			}
		}
	}
}

// TestBFSRootedForest runs every fixture, plus a star, a dense G(n, m), 500
// components and a permuted torus, at p = 1..4 under each step rule: the
// forest must span, and its levels, roots and parents must be those of a
// sequential queue BFS.
func TestBFSRootedForest(t *testing.T) {
	fixtures := testGraphs()
	fixtures["star-4000"] = gen.Star(4000)
	fixtures["random-dense"] = gen.Random(3000, 60000, 3)
	fixtures["components"] = manyComponents()
	fixtures["torus-permuted"] = permuted(gen.Torus(64, 64), 5)
	for name, g := range fixtures {
		for _, p := range []int{1, 2, 3, 4} {
			c := graph.ToCSR(p, g)
			for rname, rule := range stepRules {
				f := bfs(nil, p, c, rule)
				checkRooted(t, g, f)
				checkBFS(t, fmt.Sprintf("%s p=%d %s", name, p, rname), g, c, f)
			}
		}
	}
}

func TestBFSChainDepth(t *testing.T) {
	g := gen.Chain(100)
	f := BFS(2, graph.ToCSR(1, g))
	if f.Level[99] != 99 {
		t.Errorf("chain end level=%d, want 99", f.Level[99])
	}
}

func TestTreeEdgeMarks(t *testing.T) {
	g := gen.RandomConnected(100, 250, 5)
	c := graph.ToCSR(1, g)
	f := BFS(2, c)
	mark := f.TreeEdgeMark(2, len(g.Edges))
	count := 0
	for _, m := range mark {
		if m {
			count++
		}
	}
	if count != 99 {
		t.Errorf("marked %d tree edges, want 99", count)
	}
	uf := SV(2, g.N, g.Edges)
	umark := uf.Mark(2, len(g.Edges))
	ucount := 0
	for _, m := range umark {
		if m {
			ucount++
		}
	}
	if ucount != 99 {
		t.Errorf("SV marked %d tree edges, want 99", ucount)
	}
}

func TestRandomizedAllAlgorithmsSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(150)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial*31))
		c := graph.ToCSR(1, g)
		sv := SV(2, g.N, g.Edges)
		checkForestEdges(t, g, sv.TreeEdges)
		checkRooted(t, g, WorkStealing(3, c))
		checkRooted(t, g, BFS(3, c))
	}
}
