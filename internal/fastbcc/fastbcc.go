// Package fastbcc implements the skeleton-based biconnected components
// algorithm of Dong, Wang, Gu & Sun, "Provably Fast and Space-Efficient
// Parallel Biconnectivity" (FAST-BCC) — the fifth engine preset, sitting
// next to the paper's TV variants.
//
// Where every TV variant materializes an Euler tour, ranks it, and builds
// the auxiliary graph G' (up to 3m staged edges), FAST-BCC works directly
// on a BFS spanning forest:
//
//  1. BFS spanning forest (reusing internal/spantree). In a BFS tree every
//     non-tree edge connects vertices whose levels differ by at most one,
//     so no non-tree edge joins a vertex to a proper ancestor: all
//     non-tree edges are cross edges. This is the structural fact the
//     skeleton construction leans on.
//  2. Per-vertex first/last (preorder interval) labels from the numbering
//     kernel the rooted TV engines share, treecomp.Number — no Euler tour,
//     no list ranking: children lists and a level order, then one reverse
//     pass for subtree sizes and one forward pass for preorder numbers.
//     low/high (the min/max preorder reachable from a subtree through
//     non-tree edges) come from the TV engines' kernel, treecomp.LowHighCSR:
//     each vertex seeds its preorder slot from its own arcs, and one fold
//     answers every interval in O(1).
//  3. Fence classification: tree edge (v, u=p(v)) is a fence when
//     subtree(v)'s non-tree edges all stay inside subtree(u) — i.e.
//     low(v) >= first(u) and high(v) <= last(u). A fence edge's block is
//     completed strictly inside subtree(u), so it must not leak
//     connectivity upward; bridges are the degenerate fences whose
//     subtree has no escaping edge at all.
//  4. Skeleton connectivity: the skeleton graph keeps all non-tree (cross)
//     edges plus the non-fence ("plain") tree edges. Connected components
//     of the skeleton (internal/conncomp's union-find kernel), read at the
//     child endpoint of each tree edge, are exactly the blocks.
//  5. Labels map back onto the original edge list: tree edge (v,p(v))
//     takes v's component, a cross edge takes either endpoint's (they are
//     skeleton-connected by the edge itself). core.FinishResult densifies
//     into the canonical first-occurrence numbering, so the result is
//     byte-identical to every other engine regardless of which BFS tree
//     the races produced.
//
// Total work is O(n + m), with O(diameter) parallel rounds in the BFS, four
// sequential O(n) passes for the labels and a constant number of rounds in
// low/high, and no super-linear staging area — the space efficiency the
// paper's title refers to, and the reason its constant factor beats the TV
// stack.
package fastbcc

import (
	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// Fault-injection points, both with the computation's canceler: once before
// the tree labels are numbered, and once before the skeleton is built.
var (
	siteLabels   = faults.RegisterSite("fastbcc.labels", true)
	siteSkeleton = faults.RegisterSite("fastbcc.skeleton", true)
)

// Config carries the run's cancellation token and trace span, mirroring the
// corresponding core.Config fields.
type Config struct {
	// Cancel, when non-nil, is polled inside the parallel loops and between
	// phases; tripping it makes Run return the cancellation cause promptly.
	Cancel *par.Canceler
	// Span, when non-nil, receives one completed child span per phase (the
	// same laps that populate Result.Phases). Nil costs nothing.
	Span *obs.Span
}

// Run computes the biconnected components of g with p workers. It reads
// g's CSR, converting it with p workers (a core.PhaseToCSR lap) when no
// earlier call has.
//
// Like core.Custom it is a fault boundary: a panic anywhere in the pipeline
// is recovered and returned as a *par.PanicError instead of propagating.
func Run(p int, g *graph.Graph, cfg Config) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, par.AsPanicError(-1, v)
		}
	}()
	p = par.Procs(p)
	m := len(g.Edges)
	sw := core.NewStopwatch(cfg.Span)

	// Phase 1: BFS spanning forest.
	c, fresh := g.CSR(p)
	if fresh {
		sw.Lap(core.PhaseToCSR)
	}
	f := spantree.BFSC(cfg.Cancel, p, c)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	isTree := f.TreeEdgeMark(p, m)
	sw.Lap(core.PhaseSpanningTree)

	// Phase 2: preorder intervals (first = Pre, last = Pre+Size-1) from the
	// numbering kernel (the paper's Root-tree cost, without the tour).
	faults.Inject(cfg.Cancel, siteLabels, 0, 0)
	td, err := treecomp.Number(cfg.Cancel, f)
	if err != nil {
		return nil, err
	}
	first, size := td.Pre, td.Size
	sw.Lap(core.PhaseRoot)

	// Phase 3: low/high, seeded from each vertex's own arcs and folded over
	// the preorder intervals (treecomp's kernel, shared with TV).
	low, high := treecomp.LowHighCSR(p, first, size, f.Parent, c)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(core.PhaseLowHigh)

	// Phase 4: fence classification and skeleton construction.
	faults.Inject(cfg.Cancel, siteSkeleton, 0, 0)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	inSkel := make([]bool, m)
	par.ForC(cfg.Cancel, p, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !isTree[i] {
				// A BFS tree has no back edges, so every non-tree edge is a
				// cross edge and belongs to the skeleton.
				inSkel[i] = true
				continue
			}
			v := childOf(f, g.Edges[i], int32(i))
			u := f.Parent[v]
			// Plain (non-fence) tree edge: some edge from subtree(v)
			// escapes subtree(u), so (v,u) and (u,p(u)) share a block.
			if low[v] < first[u] || high[v] > first[u]+size[u]-1 {
				inSkel[i] = true
			}
		}
	})
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	skelIDs := prefix.Compact(p, m, func(i int) bool { return inSkel[i] })
	skel := make([]graph.Edge, len(skelIDs))
	par.For(p, len(skelIDs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			skel[i] = g.Edges[skelIDs[i]]
		}
	})
	sw.Lap(core.PhaseSkeleton)

	// Phase 5: connected components of the skeleton are the blocks.
	labels := conncomp.ShiloachVishkinC(cfg.Cancel, p, g.N, skel)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(core.PhaseConnComp)

	// Phase 6: map component labels back onto the edge list. A tree edge is
	// labeled at its child endpoint; a cross edge is itself a skeleton edge,
	// so both endpoints carry the same label and either works.
	edgeComp := make([]int32, m)
	par.ForC(cfg.Cancel, p, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			if isTree[i] {
				edgeComp[i] = labels[childOf(f, e, int32(i))]
			} else {
				edgeComp[i] = labels[e.U]
			}
		}
	})
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(core.PhaseLabelEdge)
	return core.FinishResult(edgeComp, sw), nil
}

// childOf returns the child endpoint of tree edge e (edge id i): the
// endpoint whose parent edge is i.
func childOf(f *spantree.RootedForest, e graph.Edge, i int32) int32 {
	if f.ParentEdge[e.U] == i {
		return e.U
	}
	return e.V
}
