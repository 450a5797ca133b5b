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
//  2. Per-vertex first/last (preorder interval) labels computed with three
//     O(n) level-synchronous sweeps over a children-CSR — no Euler tour,
//     no list ranking: a bottom-up sweep for subtree sizes, a top-down
//     sweep assigning preorder numbers, and a bottom-up sweep folding
//     low/high (the min/max preorder reachable from a subtree through
//     non-tree edges, exactly treecomp's semantics).
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
// Total work is O(n + m) with O(diameter) parallel rounds and no
// super-linear staging area — the space efficiency the paper's title
// refers to, and the reason its constant factor beats the TV stack.
package fastbcc

import (
	"sync/atomic"

	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
)

// Fault-injection points, both with the computation's canceler: per level
// round in the tree-label sweeps, and once before the skeleton is built.
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

	// Phase 2: subtree sizes and preorder intervals by level sweeps (the
	// paper's Root-tree cost, without the tour).
	lv := levelBuckets(cfg.Cancel, p, f)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	first, size := preorder(cfg.Cancel, p, f, lv)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(core.PhaseRoot)

	// Phase 3: low/high — seed from non-tree edges, fold bottom-up.
	low, high := lowHigh(cfg.Cancel, p, g.EdgeList, f, lv, first)
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

// levels is the vertex set bucketed by BFS depth: Verts[Off[l]:Off[l+1]]
// lists the vertices at level l, enabling level-synchronous sweeps without
// re-scanning all n vertices per round.
type levels struct {
	Max   int32   // deepest level
	Off   []int32 // length Max+2
	Verts []int32 // length n, bucketed by level
}

// levelBuckets builds the level buckets with a parallel counting sort over
// f.Level (atomic histogram, prefix sum, atomic-cursor scatter).
func levelBuckets(cn *par.Canceler, p int, f *spantree.RootedForest) *levels {
	n := int(f.N)
	max := par.MaxInt32(p, n, 0, func(i int) int32 { return f.Level[i] })
	cnt := make([]int32, int(max)+2)
	par.ForC(cn, p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			atomic.AddInt32(&cnt[f.Level[v]+1], 1)
		}
	})
	prefix.InclusiveSum32(p, cnt)
	off := cnt // cnt[0] stayed 0, so the inclusive scan is the offsets array
	cur := make([]int32, int(max)+1)
	verts := make([]int32, n)
	par.ForC(cn, p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			l := f.Level[v]
			verts[off[l]+atomic.AddInt32(&cur[l], 1)-1] = int32(v)
		}
	})
	return &levels{Max: max, Off: off, Verts: verts}
}

// preorder computes subtree sizes (bottom-up level sweep) and preorder
// numbers (top-down level sweep over a children-CSR). first[v] is v's
// preorder number; the subtree of v occupies [first[v], first[v]+size[v]-1].
// Roots are numbered in discovery order (increasing vertex id) with their
// components laid out contiguously, so the intervals of distinct components
// never overlap.
func preorder(cn *par.Canceler, p int, f *spantree.RootedForest, lv *levels) (first, size []int32) {
	n := int(f.N)
	// Children-CSR by counting sort on Parent. Scatter order within a
	// parent is racy, which only permutes preorder numbers inside the
	// subtree — the fence predicate is order-independent (it tests interval
	// containment, a property of the tree, not of the numbering).
	childCnt := make([]int32, n+1)
	par.ForC(cn, p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if f.Parent[v] != int32(v) {
				atomic.AddInt32(&childCnt[f.Parent[v]+1], 1)
			}
		}
	})
	prefix.InclusiveSum32(p, childCnt)
	childOff := childCnt
	childCur := make([]int32, n)
	children := make([]int32, childOff[n])
	par.ForC(cn, p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if pa := f.Parent[v]; pa != int32(v) {
				children[childOff[pa]+atomic.AddInt32(&childCur[pa], 1)-1] = int32(v)
			}
		}
	})

	// Bottom-up: children (level l+1) are final when level l runs; the
	// barrier between rounds publishes their writes.
	size = make([]int32, n)
	for l := lv.Max; l >= 0; l-- {
		faults.Inject(cn, siteLabels, 0, int(l))
		if cn.Err() != nil {
			return nil, nil
		}
		verts := lv.Verts[lv.Off[l]:lv.Off[l+1]]
		par.ForDynamicC(cn, p, len(verts), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := verts[i]
				s := int32(1)
				for _, c := range children[childOff[v]:childOff[v+1]] {
					s += size[c]
				}
				size[v] = s
			}
		})
	}

	// Top-down: a parent's number is final before its children are
	// assigned; per-parent prefix over its children costs O(n) total.
	first = make([]int32, n)
	base := int32(0)
	for _, r := range f.Roots {
		first[r] = base
		base += size[r]
	}
	for l := int32(0); l <= lv.Max; l++ {
		if cn.Err() != nil {
			return nil, nil
		}
		verts := lv.Verts[lv.Off[l]:lv.Off[l+1]]
		par.ForDynamicC(cn, p, len(verts), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := verts[i]
				num := first[v] + 1
				for _, c := range children[childOff[v]:childOff[v+1]] {
					first[c] = num
					num += size[c]
				}
			}
		})
	}
	return first, size
}

// lowHigh computes, per vertex v, the min/max preorder number over
// subtree(v) and the non-tree neighbors of subtree(v) — treecomp.LowHigh's
// semantics without the RMQ: seed each endpoint of every non-tree edge with
// the other endpoint's preorder, then fold children into parents bottom-up
// by level.
func lowHigh(cn *par.Canceler, p int, g *graph.EdgeList, f *spantree.RootedForest, lv *levels, first []int32) (low, high []int32) {
	n := int(f.N)
	low = make([]int32, n)
	high = make([]int32, n)
	par.ForC(cn, p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			low[v] = first[v]
			high[v] = first[v]
		}
	})
	par.ForDynamicC(cn, p, len(g.Edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			// Tree edges are exactly the parent edges; everything else
			// seeds both endpoints.
			if f.ParentEdge[e.U] == int32(i) || f.ParentEdge[e.V] == int32(i) {
				continue
			}
			atomicMin(&low[e.U], first[e.V])
			atomicMax(&high[e.U], first[e.V])
			atomicMin(&low[e.V], first[e.U])
			atomicMax(&high[e.V], first[e.U])
		}
	})
	for l := lv.Max; l >= 0; l-- {
		faults.Inject(cn, siteLabels, 0, int(lv.Max-l))
		if cn.Err() != nil {
			return nil, nil
		}
		verts := lv.Verts[lv.Off[l]:lv.Off[l+1]]
		par.ForDynamicC(cn, p, len(verts), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := verts[i]
				if pa := f.Parent[v]; pa != v {
					// Fold v into its parent with atomics: siblings at the
					// same level share the parent slot.
					atomicMin(&low[pa], low[v])
					atomicMax(&high[pa], high[v])
				}
			}
		})
	}
	return low, high
}

func atomicMin(addr *int32, v int32) {
	for {
		cur := atomic.LoadInt32(addr)
		if v >= cur || atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}

func atomicMax(addr *int32, v int32) {
	for {
		cur := atomic.LoadInt32(addr)
		if v <= cur || atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}
