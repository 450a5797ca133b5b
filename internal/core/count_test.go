package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

func TestCountBlocksKnown(t *testing.T) {
	for name, fx := range fixtures() {
		want := Sequential(fx.g).NumComp
		got, err := CountBlocks(2, graph.Wrap(fx.g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: CountBlocks=%d, full algorithm says %d", name, got, want)
		}
	}
}

// Property: CountBlocks matches the full sequential algorithm exactly.
func TestQuickCountBlocksMatchesFull(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%80) + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		want := Sequential(g).NumComp
		got, err := CountBlocks(2, graph.Wrap(g))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTwoBFSBlockCountIsUpperBound documents the reproduction finding about
// the paper's Theorem 2 corollary: the two-BFS count never undercounts, and
// it matches exactly on structures whose blocks each own a single
// component of G−T — but it can overcount in general.
func TestTwoBFSBlockCountIsUpperBound(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%60) + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		exact := Sequential(g).NumComp
		bound, err := TwoBFSBlockCount(2, graph.Wrap(g))
		return err == nil && bound >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTwoBFSBlockCountCounterexample pins the 5-vertex instance on which
// the corollary (as stated in the paper) overcounts: the graph is
// biconnected, yet its BFS tree splits the nontree edges into two disjoint
// components of G−T.
func TestTwoBFSBlockCountCounterexample(t *testing.T) {
	g := &graph.EdgeList{N: 5, Edges: []graph.Edge{
		{U: 0, V: 2}, {U: 0, V: 4}, {U: 1, V: 2},
		{U: 2, V: 4}, {U: 1, V: 3}, {U: 0, V: 3},
	}}
	exact := Sequential(g).NumComp
	if exact != 1 {
		t.Fatalf("fixture is expected to be biconnected, got %d blocks", exact)
	}
	bound, err := TwoBFSBlockCount(1, graph.Wrap(g))
	if err != nil {
		t.Fatal(err)
	}
	if bound != 2 {
		t.Errorf("TwoBFSBlockCount=%d; the documented counterexample expects the corollary to report 2", bound)
	}
}

// On trees and simple cycles the corollary is exact.
func TestTwoBFSBlockCountExactCases(t *testing.T) {
	cases := map[string]struct {
		g    *graph.EdgeList
		want int
	}{
		"chain":      {gen.Chain(10), 9},
		"cycle":      {gen.Cycle(8), 1},
		"star":       {gen.Star(6), 5},
		"blockchain": {gen.BlockChain(4, 3), 4},
		"binarytree": {gen.BinaryTree(15), 14},
	}
	for name, c := range cases {
		got, err := TwoBFSBlockCount(2, graph.Wrap(c.g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != c.want {
			t.Errorf("%s: TwoBFSBlockCount=%d, want %d", name, got, c.want)
		}
	}
}

func TestCountBlocksLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		n := 500 + rng.Intn(1500)
		m := n + rng.Intn(4*n)
		g := gen.RandomConnected(n, m, int64(trial))
		want := Sequential(g).NumComp
		got, err := CountBlocks(4, graph.Wrap(g))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("trial %d (n=%d m=%d): CountBlocks=%d, want %d", trial, n, m, got, want)
		}
		bound, err := TwoBFSBlockCount(4, graph.Wrap(g))
		if err != nil {
			t.Fatal(err)
		}
		if bound < want {
			t.Errorf("trial %d: TwoBFSBlockCount=%d undercounts %d", trial, bound, want)
		}
	}
}

// TwoBFSBlockCount, kept with the tests that show the finding below since
// nothing else reaches it, implements the counting rule the paper states as the
// immediate corollary of Theorem 2: the first BFS computes a rooted
// spanning tree T, the second pass a spanning forest F of G−T, and "the
// number of components in F is the number of biconnected components in G"
// (bridges, which own no nontree edge, counted separately via low/high).
//
// Reproduction note: the corollary as stated is only an UPPER bound.
// Theorem 2 guarantees each component of G−T lies inside one block, but two
// different components can lie inside the same block. Smallest
// counterexample found while reproducing the paper (5 vertices, 6 edges):
//
//	edges {0,2} {0,4} {1,2} {2,4} {1,3} {0,3}
//
// is biconnected (one block), yet its BFS tree from vertex 0 leaves the
// nontree edges {4,2} and {1,3} in two disjoint components of G−T, so the
// rule reports 2. TestTwoBFSBlockCountIsUpperBound documents the bound;
// use CountBlocks for the exact value.
func TwoBFSBlockCount(p int, g *graph.Graph) (int, error) {
	p = par.Procs(p)
	m := len(g.Edges)
	c, _ := g.CSR(p)
	t := spantree.BFS(p, c)
	inT := t.TreeEdgeMark(p, m)
	// Non-trivial blocks (upper bound): components of G−T containing at
	// least one edge.
	labels := conncomp.ShiloachVishkin(p, g.N, filterEdges(p, g.Edges, inT, false))
	nontrivial := countEdgeComponents(g.Edges, inT, labels)
	// Bridges via low/high on the BFS tree: tree edge (v, p(v)) is a bridge
	// iff no nontree edge leaves v's subtree.
	td, err := treecomp.Number(nil, t)
	if err != nil {
		return 0, err
	}
	low, high := treecomp.LowHigh(p, td, g.Edges, inT)
	bridges := par.CountTrue(p, int(g.N), func(v int) bool {
		if td.IsRoot(int32(v)) {
			return false
		}
		return low[v] == td.Pre[v] && high[v] < td.Pre[v]+td.Size[v]
	})
	return nontrivial + bridges, nil
}

// filterEdges returns the edges whose isTree flag equals keepTree.
func filterEdges(p int, edges []graph.Edge, isTree []bool, keepTree bool) []graph.Edge {
	ids := prefix.Compact(p, len(edges), func(i int) bool { return isTree[i] == keepTree })
	out := make([]graph.Edge, len(ids))
	par.For(p, len(ids), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = edges[ids[i]]
		}
	})
	return out
}

// countEdgeComponents counts the distinct component labels that appear on
// at least one nontree edge's endpoint pair.
func countEdgeComponents(edges []graph.Edge, isTree []bool, labels []int32) int {
	seen := make(map[int32]struct{}, 16)
	for i, e := range edges {
		if isTree[i] {
			continue
		}
		seen[labels[e.U]] = struct{}{}
	}
	return len(seen)
}
