package core

import (
	"bicc/internal/conncomp"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/treecomp"
)

// auxGraph is the paper's G' = (V', E'): V' has one vertex per edge of G
// (tree edge (u,p(u)) ↦ u; the j-th nontree edge ↦ n+j), and E' connects
// edges of G related under R'c.
type auxGraph struct {
	n     int32        // |V'| = n + #nontree
	edges []graph.Edge // E'
	ntIdx []int32      // nontree edge i of G ↦ aux vertex n + ntIdx[i]
	// condCount[k] is the number of R'c pairs contributed by condition k+1
	// (the per-condition sizes the paper reports for Fig. 1).
	condCount [3]int
}

// buildAux implements Algorithm 1, writing G' at its exact size. A first
// pass over each worker's block of edges counts the pairs each of the
// three R'c conditions contributes; a scan over the 3×p counts gives every
// block its output offset per condition; a second pass over the same
// blocks writes each pair at its final place. E' lists the condition-1
// pairs, then condition 2, then condition 3, each in edge order. Every
// nontree edge yields exactly one condition-1 pair, so its condition-1
// offset is also its number among the nontree edges (the paper's N array).
//
// Conditions (preorder comparisons, per §2):
//  1. nontree g=(u,v) with pre(v) < pre(u) pairs g with tree edge (u,p(u)).
//  2. nontree (u,v) with u,v unrelated pairs (u,p(u)) with (v,p(v)).
//  3. tree edge (u, v=p(u)) with v not a root pairs (u,p(u)) with (v,p(v))
//     iff low(u) < pre(v) or high(u) >= pre(v)+size(v).
func buildAux(p int, edges []graph.Edge, isTree []bool, td *treecomp.TreeData, low, high []int32) *auxGraph {
	n := td.N
	m := len(edges)
	p = par.Procs(p)
	// next[w][k] counts block w's condition-(k+1) pairs, then holds the
	// offset of its next one.
	next := make([][3]int, p)
	par.ForWorker(p, m, func(w, lo, hi int) {
		var c [3]int
		for i := lo; i < hi; i++ {
			e := edges[i]
			if isTree[i] {
				if _, _, ok := cond3(td, low, high, e); ok {
					c[2]++
				}
				continue
			}
			c[0]++
			if !td.Related(e.U, e.V) {
				c[1]++
			}
		}
		next[w] = c
	})
	aux := &auxGraph{}
	total := 0
	for k := range aux.condCount {
		start := total
		for w := range next {
			c := next[w][k]
			next[w][k] = total
			total += c
		}
		aux.condCount[k] = total - start
	}
	out := make([]graph.Edge, total)
	ntIdx := make([]int32, m)
	par.ForWorker(p, m, func(w, lo, hi int) {
		at := next[w]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if isTree[i] {
				if u, v, ok := cond3(td, low, high, e); ok {
					out[at[2]] = graph.Edge{U: u, V: v}
					at[2]++
				}
				continue
			}
			u, v := e.U, e.V
			if td.Pre[u] < td.Pre[v] {
				u, v = v, u
			}
			ntIdx[i] = int32(at[0])
			out[at[0]] = graph.Edge{U: u, V: n + int32(at[0])}
			at[0]++
			if !td.Related(u, v) {
				out[at[1]] = graph.Edge{U: u, V: v}
				at[1]++
			}
		}
	})
	aux.n, aux.edges, aux.ntIdx = n+int32(aux.condCount[0]), out, ntIdx
	return aux
}

// cond3 orders tree edge e as (child u, parent v) and reports whether it
// meets condition 3.
func cond3(td *treecomp.TreeData, low, high []int32, e graph.Edge) (u, v int32, ok bool) {
	u, v = e.U, e.V
	if td.Parent[u] != v {
		u, v = v, u
	}
	return u, v, !td.IsRoot(v) && (low[u] < td.Pre[v] || high[u] >= td.Pre[v]+td.Size[v])
}

// tvTail finishes any TV variant: build G' (Label-edge step), run
// conncomp's union-find kernel on it (Connected-components step),
// and write raw component labels into edgeComp. sw records the two phases.
// origID maps local edge indices to positions in edgeComp (nil means
// identity); TV-filter uses it to overlay results computed on the reduced
// graph onto the full edge list. Labels are raw (not densified) so callers
// can keep translating filtered edges before calling FinishResult.
func tvTail(c *par.Canceler, p int, sw *Stopwatch, edges []graph.Edge, isTree []bool,
	td *treecomp.TreeData, low, high []int32, edgeComp []int32, origID []int32) {
	aux := buildAux(p, edges, isTree, td, low, high)
	sw.Lap(PhaseLabelEdge)
	labels := conncomp.ShiloachVishkinC(c, p, aux.n, aux.edges)
	if c.Err() != nil {
		return
	}
	n := td.N
	par.For(p, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var auxID int32
			if isTree[i] {
				e := edges[i]
				child := e.U
				if td.Parent[child] != e.V {
					child = e.V
				}
				auxID = child
			} else {
				auxID = n + aux.ntIdx[i]
			}
			pos := int32(i)
			if origID != nil {
				pos = origID[i]
			}
			edgeComp[pos] = labels[auxID]
		}
	})
	sw.Lap(PhaseConnComp)
}

// FinishResult densifies the raw component labels into first-occurrence
// order over the edge list — the canonical numbering every engine emits —
// and wraps them with the stopwatch's phase breakdown. Exported so sibling
// engines (internal/fastbcc) share the exact canonicalization step the
// incremental layer's byte-equality contract depends on.
func FinishResult(edgeComp []int32, sw *Stopwatch) *Result {
	k := conncomp.Normalize(edgeComp)
	return &Result{NumComp: k, EdgeComp: edgeComp, Phases: sw.phases}
}
