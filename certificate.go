package bicc

import (
	"bicc/internal/core"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
)

// SparseCertificate returns a subgraph with the same vertex set, at most
// 2(n−1) edges, and exactly the same biconnectivity structure as g: same
// blocks (up to the removed edges, each of which lies inside an existing
// block), same articulation points, and the same connected components.
//
// It is the T ∪ F construction at the heart of the paper's §4 filtering
// algorithm — a BFS spanning tree T plus a spanning forest F of G−T —
// promoted to a standalone primitive: Theorem 2 guarantees each discarded
// edge closes a cycle within one block. Certificates compose with any
// downstream biconnectivity computation, shrinking dense inputs to linear
// size first.
//
// edgeMap[j] gives the index in g of the certificate's edge j. The BFS
// reads g's CSR.
func SparseCertificate(g *Graph, opt *Options) (cert *Graph, edgeMap []int32, err error) {
	if g == nil {
		return nil, nil, ErrNilGraph
	}
	procs := 0
	if opt != nil {
		procs = opt.Procs
	}
	p := par.Procs(procs)
	m := g.NumEdges()
	c, _ := g.gr.CSR(p)
	t := spantree.BFS(p, c)
	keep := t.TreeEdgeMark(p, m) // T, then T ∪ F
	for _, id := range core.NontreeForest(nil, p, g.gr.N, g.gr.Edges, keep) {
		keep[id] = true
	}
	edgeMap = prefix.Compact(p, m, func(i int) bool { return keep[i] })
	edges := make([]Edge, len(edgeMap))
	par.For(p, len(edgeMap), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			edges[i] = g.gr.Edges[edgeMap[i]]
		}
	})
	return wrap(&graph.EdgeList{N: g.gr.N, Edges: edges}), edgeMap, nil
}
