package core

import (
	"bicc/internal/conncomp"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/treecomp"
)

// auxMask is TV's step 5, Label-edge (Alg. 1), with the auxiliary graph
// G′ kept as a mask over G's own edges. Alg. 1 numbers tree edge (u, p(u))
// as G′ vertex u, and under that numbering the three R'c conditions (§2,
// preorder comparisons) read:
//
//  1. nontree g=(u,v) with pre(v) < pre(u) pairs g with tree edge (u,p(u)):
//     g is a G′ vertex of degree one, a pendant that never joins two
//     components, so it needs no edge. edgeBlocks gives g u's label.
//  2. nontree (u,v) with u,v unrelated pairs (u,p(u)) with (v,p(v)): G′
//     vertices u and v, joined by G's own edge (u,v).
//  3. tree edge (u, v=p(u)) with v not a root pairs (u,p(u)) with (v,p(v))
//     iff low(u) < pre(v) or high(u) >= pre(v)+size(v): G's own edge (u,v).
//
// mask[i] reports whether edge i is a condition-2 or condition-3 pair, so
// the components of the masked edges over G's n vertices are G′'s
// components, its pendants aside. A root needs no test: its preorder
// interval holds its whole component, which low and high never leave.
//
// bfs says the tree is a BFS tree. Its nontree edges all join unrelated
// vertices (Lemma 1), so they need no test; on all of G the mask is then
// FAST-BCC's skeleton. forest, when non-nil, lists the only nontree edges
// (ids into edges) that are condition-2 candidates: TV-filter runs TV on
// T ∪ F, and the edges of G − (T ∪ F) are pendants of G′ only. c is polled
// per chunk; when it trips the mask is incomplete and callers must check
// c.Err().
func auxMask(c *par.Canceler, p int, edges []graph.Edge, isTree []bool, td *treecomp.TreeData,
	low, high []int32, bfs bool, forest []int32) []bool {
	pre, size := td.Pre, td.Size
	mask := make([]bool, len(edges))
	par.ForC(c, p, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := edges[i].U, edges[i].V
			if isTree[i] {
				if pre[u] < pre[v] {
					u, v = v, u // u is the child
				}
				mask[i] = low[u] < pre[v] || high[u] >= pre[v]+size[v]
			} else if forest == nil {
				mask[i] = bfs || !td.Related(u, v)
			}
		}
	})
	par.ForC(c, p, len(forest), func(lo, hi int) {
		for _, i := range forest[lo:hi] {
			mask[i] = bfs || !td.Related(edges[i].U, edges[i].V)
		}
	})
	return mask
}

// edgeBlocks is the label pass that follows the components of the masked
// edges (labels, by vertex): edge i takes the label of its larger-preorder
// endpoint. For a tree edge (u, p(u)) that is the child u, the edge's own
// G′ vertex; for a nontree edge it is the tree edge it hangs off by
// condition 1. A masked edge joins its endpoints, so either label will do
// and it reads no preorder. Labels stay raw; finishResult densifies them.
// c is polled like auxMask's.
func edgeBlocks(c *par.Canceler, p int, edges []graph.Edge, mask []bool, pre, labels []int32) []int32 {
	edgeComp := make([]int32, len(edges))
	par.ForC(c, p, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := edges[i].U, edges[i].V
			if !mask[i] && pre[v] > pre[u] {
				u = v
			}
			edgeComp[i] = labels[u]
		}
	})
	return edgeComp
}

// tvTail finishes any TV variant: the mask (Label-edge step), then
// conncomp's union-find kernel over the masked edges of G and the label pass
// (Connected-components step). sw records the two phases. bfs and forest
// are auxMask's.
func tvTail(c *par.Canceler, p int, sw *Stopwatch, edges []graph.Edge, isTree []bool,
	td *treecomp.TreeData, low, high []int32, bfs bool, forest []int32) []int32 {
	mask := auxMask(c, p, edges, isTree, td, low, high, bfs, forest)
	if c.Err() != nil {
		return nil
	}
	sw.Lap(PhaseLabelEdge)
	labels := conncomp.ShiloachVishkinC(c, p, td.N, edges, mask)
	if c.Err() != nil {
		return nil
	}
	edgeComp := edgeBlocks(c, p, edges, mask, td.Pre, labels)
	sw.Lap(PhaseConnComp)
	return edgeComp
}

// finishResult densifies the raw component labels into first-occurrence
// order over the edge list — the canonical numbering every engine emits,
// which the incremental layer's byte-equality contract depends on — and
// wraps them with the stopwatch's phase breakdown.
func finishResult(edgeComp []int32, sw *Stopwatch) *Result {
	k := conncomp.Normalize(edgeComp)
	return &Result{NumComp: k, EdgeComp: edgeComp, Phases: sw.phases}
}
