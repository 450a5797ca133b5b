package core

import (
	"fmt"

	"bicc/internal/eulertour"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/prefix"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// Fault-injection points: at engine entry (iter = the SpanningTreeKind, so a
// rule can target one TV variant) and between pipeline phases (iter = phase
// ordinal). Both receive the run's canceler.
var (
	siteEntry = faults.RegisterSite("core.entry", true)
	sitePhase = faults.RegisterSite("core.pipeline", true)
)

// SpanningTreeKind selects step 1 of the TV pipeline.
type SpanningTreeKind int

const (
	// SpanSV is the unrooted spanning tree of the original TV, which the
	// paper derives from Shiloach–Vishkin; here spantree.SV records the
	// edges of conncomp.Link's successful links. It forces the sort-based
	// Euler tour and list ranking.
	SpanSV SpanningTreeKind = iota
	// SpanWorkStealing is the Bader–Cong rooted traversal (TV-opt).
	SpanWorkStealing
	// SpanBFS is the level-synchronous BFS tree (required by TV-filter).
	SpanBFS
)

// RankerKind selects the list-ranking algorithm for the sort-based tour.
type RankerKind int

const (
	// RankHelmanJaja is the sublist-based O(n) ranker.
	RankHelmanJaja RankerKind = iota
	// RankWyllie is O(n log n) pointer jumping.
	RankWyllie
)

// Config assembles a TV pipeline from interchangeable engines. The presets
// are: TV-SMP = {SpanSV, RankHelmanJaja, no filter}; TV-opt =
// {SpanWorkStealing, no filter}; TV-filter = {SpanBFS, filter}.
type Config struct {
	SpanningTree SpanningTreeKind
	Ranker       RankerKind // used only with SpanSV
	// Cancel, when non-nil, is polled inside the engines' parallel loops and
	// between pipeline phases; tripping it makes Custom return the
	// cancellation cause promptly instead of finishing the run.
	Cancel *par.Canceler
	// Span, when non-nil, receives one completed child span per pipeline
	// phase (the same laps that populate Result.Phases), wiring the run
	// into a caller's obs trace. Nil costs nothing.
	Span *obs.Span
	// Filter enables the §4 edge filtering. It requires SpanBFS: the
	// correctness lemmas (Lemma 1/2, Theorem 2) hold only for BFS trees.
	Filter bool
	// ParallelTour selects the computed (level-sweep) Euler tour of Cong &
	// Bader's technique paper [6] instead of the sequential DFS emission;
	// both produce identical sequences. Only meaningful for rooted
	// spanning trees (ignored with SpanSV).
	ParallelTour bool
}

// Custom runs the TV pipeline described by cfg with p workers. The rooted
// spanning trees read g's CSR, converting it with p workers (a PhaseToCSR
// lap) when no earlier call has; SpanSV works on the edge list alone.
//
// Custom is a fault boundary: a panic anywhere in the pipeline — in a phase
// running on this goroutine or re-raised by the par runtime after containing
// a worker panic — is recovered and returned as a *par.PanicError instead of
// propagating. Callers therefore see engine bugs as errors, never as
// crashes.
func Custom(p int, g *graph.Graph, cfg Config) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, par.AsPanicError(-1, v)
		}
	}()
	if cfg.Filter && cfg.SpanningTree != SpanBFS {
		return nil, fmt.Errorf("core: edge filtering requires a BFS spanning tree (paper Lemma 1)")
	}
	p = par.Procs(p)
	faults.Inject(cfg.Cancel, siteEntry, 0, int(cfg.SpanningTree))
	sw := NewStopwatch(cfg.Span)
	// Step 1 (+3 for rooted variants): spanning tree.
	var (
		td         *treecomp.TreeData
		isTree     []bool
		c          *graph.CSR
		rooted     *spantree.RootedForest
		linkedTour *eulertour.Tour
		seq        *eulertour.ArcSeq
		mGlobal    = len(g.Edges)
	)
	switch cfg.SpanningTree {
	case SpanSV:
		f := spantree.SVC(cfg.Cancel, p, g.N, g.Edges)
		if err := cfg.Cancel.Err(); err != nil {
			return nil, err
		}
		roots := rootsFromLabels(f.Labels)
		isTree = f.Mark(p, mGlobal)
		sw.Lap(PhaseSpanningTree)
		linkedTour, err = eulertour.FromForest(p, g.N, g.Edges, f.TreeEdges, roots)
		if err != nil {
			return nil, err
		}
		sw.Lap(PhaseEulerTour)
	case SpanWorkStealing, SpanBFS:
		var fresh bool
		c, fresh = g.CSR(p)
		if fresh {
			sw.Lap(PhaseToCSR)
		}
		if cfg.SpanningTree == SpanWorkStealing {
			rooted = spantree.WorkStealingC(cfg.Cancel, p, c)
		} else {
			rooted = spantree.BFSC(cfg.Cancel, p, c)
		}
		if err := cfg.Cancel.Err(); err != nil {
			return nil, err
		}
		isTree = rooted.TreeEdgeMark(p, mGlobal)
		sw.Lap(PhaseSpanningTree)
	default:
		return nil, fmt.Errorf("core: unknown spanning tree kind %d", cfg.SpanningTree)
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 1)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}

	// Optional filtering (between tree construction and the tour, as in
	// Alg. 2).
	edges := g.Edges
	edgeIsTree := isTree
	var origID []int32 // reduced -> global edge ids
	var keep []bool
	if cfg.Filter {
		edges, edgeIsTree, origID, keep = filterNonEssential(cfg.Cancel, p, g.EdgeList, rooted, isTree)
		if err := cfg.Cancel.Err(); err != nil {
			return nil, err
		}
		sw.Lap(PhaseFiltering)
	}

	// Step 2 for the rooted variants: tour in traversal order.
	if rooted != nil {
		if cfg.ParallelTour {
			seq = eulertour.DFSOrderParallel(p, g.Edges, rooted)
		} else {
			seq = eulertour.DFSOrder(p, g.Edges, rooted)
		}
		sw.Lap(PhaseEulerTour)
	}
	// Step 3: tree computations. For the SV path this is where the list
	// ranking runs, which is the paper's "root" cost.
	if linkedTour != nil {
		seq, err = eulertour.Sequence(p, linkedTour, cfg.Ranker == RankHelmanJaja)
		if err != nil {
			return nil, err
		}
	}
	td, err = treecomp.Compute(p, seq)
	if err != nil {
		return nil, err
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 2)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(PhaseRoot)

	// Step 4: low/high. A rooted, unfiltered run (TV-opt) seeds from the CSR
	// it already holds; TV-SMP has no adjacency and TV-filter's G′ is not
	// the CSR's graph, so both seed from their edge lists.
	var low, high []int32
	if rooted != nil && !cfg.Filter {
		low, high = treecomp.LowHighCSR(p, td.Pre, td.Size, td.Parent, c)
	} else {
		low, high = treecomp.LowHigh(p, td, edges, edgeIsTree)
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 3)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(PhaseLowHigh)

	// Steps 5–6 plus the filtered-edge relabeling.
	edgeComp := make([]int32, mGlobal)
	tvTail(cfg.Cancel, p, sw, edges, edgeIsTree, td, low, high, edgeComp, origID)
	faults.Inject(cfg.Cancel, sitePhase, 0, 4)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	if cfg.Filter {
		par.For(p, mGlobal, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if keep[i] {
					continue
				}
				e := g.Edges[i]
				u := e.U
				if td.Pre[e.V] > td.Pre[u] {
					u = e.V
				}
				edgeComp[i] = edgeComp[rooted.ParentEdge[u]]
			}
		})
		sw.Lap(PhaseFiltering)
	}
	return FinishResult(edgeComp, sw), nil
}

// filterNonEssential implements steps 1–2 of Alg. 2 given the BFS tree:
// compute a spanning forest F of G−T and keep only T ∪ F. It returns the
// reduced edge list, its tree mask, the reduced→global id map, and the
// global keep mask.
func filterNonEssential(c *par.Canceler, p int, g *graph.EdgeList, t *spantree.RootedForest, inT []bool) (
	reduced []graph.Edge, reducedIsTree []bool, origID []int32, keep []bool) {
	m := len(g.Edges)
	nontreeIDs := prefix.Compact(p, m, func(i int) bool { return !inT[i] })
	nontreeEdges := make([]graph.Edge, len(nontreeIDs))
	par.For(p, len(nontreeIDs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nontreeEdges[i] = g.Edges[nontreeIDs[i]]
		}
	})
	ff := spantree.SVC(c, p, g.N, nontreeEdges)
	if c.Err() != nil {
		return nil, nil, nil, make([]bool, m)
	}
	keep = make([]bool, m)
	par.For(p, m, func(lo, hi int) {
		copy(keep[lo:hi], inT[lo:hi])
	})
	par.For(p, len(ff.TreeEdges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keep[nontreeIDs[ff.TreeEdges[i]]] = true
		}
	})
	origID = prefix.Compact(p, m, func(i int) bool { return keep[i] })
	reduced = make([]graph.Edge, len(origID))
	reducedIsTree = make([]bool, len(origID))
	par.For(p, len(origID), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reduced[i] = g.Edges[origID[i]]
			reducedIsTree[i] = inT[origID[i]]
		}
	})
	return reduced, reducedIsTree, origID, keep
}
