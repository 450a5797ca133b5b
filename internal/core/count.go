package core

import (
	"bicc/internal/conncomp"
	"bicc/internal/eulertour"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// CountBlocks returns the exact number of biconnected components, computed
// with the TV-filter pipeline (the block labels of the filtered edges never
// change the count, so step 4 of Alg. 2 is skipped).
func CountBlocks(p int, g *graph.Graph) (int, error) {
	res, err := Custom(p, g, TVFilterConfig())
	if err != nil {
		return 0, err
	}
	return res.NumComp, nil
}

// TwoBFSBlockCount implements the counting rule the paper states as the
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
	seq := eulertour.DFSOrder(p, g.Edges, t)
	td, err := treecomp.Compute(p, seq)
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
