package core

import (
	"fmt"

	"bicc/internal/eulertour"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// Fault-injection points: at engine entry (iter = the SpanningTreeKind, so a
// rule can target the presets built on one kind of tree: TV-filter and
// FAST-BCC share SpanBFS) and between pipeline phases (iter = phase
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
	// SpanBFS is the level-synchronous BFS tree: FAST-BCC's tree, and the
	// one TV-filter requires.
	SpanBFS
)

// Config assembles a TV pipeline from interchangeable engines. The presets
// are: TV-SMP = {SpanSV, no filter}; TV-opt = {SpanWorkStealing, no
// filter}; TV-filter = {SpanBFS, filter}; FAST-BCC = {SpanBFS, no filter}.
// SpanSV ranks its tour with Helman–JáJá.
type Config struct {
	SpanningTree SpanningTreeKind
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
		m          = len(g.Edges)
	)
	switch cfg.SpanningTree {
	case SpanSV:
		f := spantree.SVC(cfg.Cancel, p, g.N, g.Edges, nil)
		if err := cfg.Cancel.Err(); err != nil {
			return nil, err
		}
		roots := rootsFromLabels(f.Labels)
		isTree = f.Mark(p, m)
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
		isTree = rooted.TreeEdgeMark(p, m)
		sw.Lap(PhaseSpanningTree)
	default:
		return nil, fmt.Errorf("core: unknown spanning tree kind %d", cfg.SpanningTree)
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 1)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}

	// Optional filtering (between tree construction and the tour, as in
	// Alg. 2): F, a spanning forest of G − T, by edge ids into G.
	var forest []int32
	if cfg.Filter {
		forest = NontreeForest(cfg.Cancel, p, g.N, g.Edges, isTree)
		if err := cfg.Cancel.Err(); err != nil {
			return nil, err
		}
		sw.Lap(PhaseFiltering)
	}

	// Steps 2–3. A rooted tree (TV-opt, TV-filter, FAST-BCC) is numbered by
	// treecomp's kernel without a tour: its children lists and level order
	// stand in for the Euler tour, and its size and preorder passes are the
	// root step. The SV path list-ranks its linked tour here, which is the
	// paper's "root" cost.
	if rooted != nil {
		lv, err := treecomp.Order(cfg.Cancel, rooted)
		if err != nil {
			return nil, err
		}
		sw.Lap(PhaseEulerTour)
		if td, err = lv.Number(cfg.Cancel); err != nil {
			return nil, err
		}
	} else {
		seq, err := eulertour.Sequence(p, linkedTour, true)
		if err != nil {
			return nil, err
		}
		if td, err = treecomp.Compute(p, seq); err != nil {
			return nil, err
		}
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 2)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(PhaseRoot)

	// Step 4: low/high. TV-opt and FAST-BCC seed from the CSR they already
	// hold. TV-SMP has no adjacency and TV-filter's T ∪ F is not the CSR's
	// graph, so both seed from an edge list: G's nontree edges, or F's
	// edges.
	var low, high []int32
	switch {
	case cfg.Filter:
		fe := make([]graph.Edge, len(forest))
		par.For(p, len(forest), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fe[i] = g.Edges[forest[i]]
			}
		})
		low, high = treecomp.LowHigh(p, td, fe, make([]bool, len(fe)))
	case rooted != nil:
		low, high = treecomp.LowHighCSR(p, td.Pre, td.Size, td.Parent, c)
	default:
		low, high = treecomp.LowHigh(p, td, g.Edges, isTree)
	}
	faults.Inject(cfg.Cancel, sitePhase, 0, 3)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	sw.Lap(PhaseLowHigh)

	// Steps 5–6 over G's own edges. TV-filter's filtered edges get their
	// labels in the same pass as every other edge (Alg. 2's step 4 is
	// condition 1).
	edgeComp := tvTail(cfg.Cancel, p, sw, g.Edges, isTree, td, low, high, cfg.SpanningTree == SpanBFS, forest)
	faults.Inject(cfg.Cancel, sitePhase, 0, 4)
	if err := cfg.Cancel.Err(); err != nil {
		return nil, err
	}
	return finishResult(edgeComp, sw), nil
}

// NontreeForest is step 2 of Alg. 2 and the F of every T ∪ F certificate:
// a spanning forest of G − T, T being the tree whose edges inT marks. It
// runs conncomp.Link over G's own edges under the nontree mask, so the
// returned forest edges are ids into edges, and Link meets the nontree
// edges in edge order. When c trips the forest is incomplete and callers
// must check c.Err().
func NontreeForest(c *par.Canceler, p int, n int32, edges []graph.Edge, inT []bool) []int32 {
	nontree := make([]bool, len(edges))
	par.For(p, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nontree[i] = !inT[i]
		}
	})
	return spantree.SVC(c, p, n, edges, nontree).TreeEdges
}
