// Package bicc finds the biconnected components of undirected graphs using
// the parallel algorithms from Cong & Bader, "An Experimental Study of
// Parallel Biconnected Components Algorithms on Symmetric Multiprocessors
// (SMPs)" (IPPS 2005): the Tarjan–Vishkin SMP emulation (TV-SMP), its
// optimized adaptation (TV-opt), the paper's new edge-filtering algorithm
// (TV-filter), and the sequential Hopcroft–Tarjan baseline — plus the
// skeleton-based FAST-BCC engine (fast-bcc) from the follow-on literature,
// which drops the Euler-tour/list-ranking stack entirely.
//
// A biconnected component (block) is a maximal subgraph that remains
// connected after removing any single vertex. Every edge of a simple graph
// belongs to exactly one block; a bridge forms a singleton block.
// Articulation points (cut vertices) and bridges fall out of the block
// decomposition for free.
//
// Quickstart:
//
//	g, err := bicc.NewGraph(4, []bicc.Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
//	res, err := bicc.BiconnectedComponents(g, nil)
//	fmt.Println(res.NumComponents)          // 2: the triangle and the bridge
//	fmt.Println(res.ArticulationPoints())   // [2]
//	fmt.Println(res.Bridges())              // [3] (edge index of {2,3})
//
// Unlike the paper's codes, this implementation accepts disconnected
// graphs: all algorithms operate on rooted spanning forests.
package bicc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// phaseSeconds is the live per-phase breakdown of every engine run — the
// paper's Fig. 4 as a scrapeable histogram family. Observation is gated by
// obs.Enabled() so benchmark runs stay unperturbed.
var phaseSeconds = obs.Default().HistogramVec("bicc_phase_seconds",
	"Engine execution time per TV pipeline phase (the paper's Fig. 4 breakdown).",
	"algorithm", "phase")

// Edge is one undirected edge between vertices U and V.
type Edge = graph.Edge

// Graph is an undirected simple graph on vertices [0, N). It is immutable.
// The first call that needs adjacency (any engine but TVSMP, or
// SparseCertificate, CountBlocks, Analyze or Diameter) builds the graph's
// CSR, 16m + 4(n+1) bytes, and the graph keeps it for every later call,
// whatever the engine or worker count.
type Graph struct {
	gr *graph.Graph
}

// NewGraph builds a graph from n vertices and an edge list. It rejects
// out-of-range endpoints, self loops, and duplicate edges; use
// NewGraphNormalized to clean such inputs instead.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return AdoptGraph(n, append([]Edge(nil), edges...))
}

// AdoptGraph is NewGraph without the copy: the graph keeps edges as its
// edge list, so the caller must not modify the slice afterwards. It suits
// a caller that built the slice only to hand it over, such as a reader.
func AdoptGraph(n int, edges []Edge) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	el := &graph.EdgeList{N: int32(n), Edges: edges}
	if err := el.Validate(); err != nil {
		return nil, err
	}
	return wrap(el), nil
}

// checkVertexCount rejects a vertex count outside what int32 vertex ids
// can number.
func checkVertexCount(n int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("bicc: vertex count %d outside [0, %d]", n, math.MaxInt32)
	}
	return nil
}

// wrap returns el as a Graph with no CSR yet.
func wrap(el *graph.EdgeList) *Graph { return &Graph{gr: graph.Wrap(el)} }

// NewGraphNormalized builds a graph after dropping self loops and
// deduplicating parallel edges. It reports how many of each were removed.
// Edge indices in results refer to the normalized edge order, retrievable
// via Edges.
func NewGraphNormalized(n int, edges []Edge) (g *Graph, loops, dups int, err error) {
	if err := checkVertexCount(n); err != nil {
		return nil, 0, 0, err
	}
	// Copy before wrapping: the EdgeList below must never alias the caller's
	// slice, or normalization could reorder/truncate the caller's data.
	el := &graph.EdgeList{N: int32(n), Edges: append([]Edge(nil), edges...)}
	for i, e := range el.Edges {
		if e.U < 0 || e.U >= el.N || e.V < 0 || e.V >= el.N {
			return nil, 0, 0, fmt.Errorf("bicc: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
		}
	}
	norm, loops, dups := el.Normalize()
	return wrap(norm), loops, dups, nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return int(g.gr.N) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.gr.Edges) }

// Edges returns the graph's edges; index i in results refers to this slice.
// The caller must not modify the returned slice.
func (g *Graph) Edges() []Edge { return g.gr.Edges }

// Algorithm selects the biconnected components implementation.
type Algorithm int

const (
	// Auto picks TVFilter when m >= 4n and TVOpt otherwise — the fallback
	// rule from the end of the paper's §4 — and Sequential when only one
	// processor is requested.
	Auto Algorithm = iota
	// Sequential is Tarjan's linear-time DFS algorithm.
	Sequential
	// TVSMP is the direct SMP emulation of Tarjan–Vishkin (§3.1), kept as
	// the paper's baseline: sort-based Euler tour, list-ranking tree
	// computations.
	TVSMP
	// TVOpt is the optimized adaptation (§3.2): merged spanning-tree/root
	// via work-stealing traversal, and the rooted tree numbered by two
	// passes over its level order in place of the DFS-ordered Euler tour
	// and its prefix sums.
	TVOpt
	// TVFilter is the paper's new algorithm (§4): discard nontree edges
	// that cannot affect biconnectivity, run TV on at most 2(n-1) edges,
	// then label the filtered edges by condition 1.
	TVFilter
	// FastBCC is the skeleton-based algorithm of Dong, Wang, Gu & Sun
	// ("Provably Fast and Space-Efficient Parallel Biconnectivity"): a BFS
	// forest, preorder/low/high labels from O(n) passes instead of an
	// Euler tour, and connected components over the fence-free skeleton
	// graph. Same canonical output as every other engine, without the
	// tour/list-ranking constant factor.
	FastBCC
)

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	if a == Auto {
		return "auto"
	}
	if e, ok := a.engine(); ok {
		return e.Name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms returns every engine preset — each Algorithm but Auto — in
// presentation order.
func Algorithms() []Algorithm {
	algos := make([]Algorithm, len(engine.All))
	for i := range algos {
		algos[i] = Algorithm(i + 1)
	}
	return algos
}

// engine returns a's entry in the engine table, whose order the constants
// follow one past Auto. Auto and out-of-range values have none.
func (a Algorithm) engine() (engine.Engine, bool) {
	if a < 1 || int(a) > len(engine.All) {
		return engine.Engine{}, false
	}
	return engine.All[a-1], true
}

// ParseAlgorithm is the inverse of Algorithm.String: it maps a preset name
// to its Algorithm. Unknown names are rejected with an error listing the
// valid presets — callers must never fall through to a silent zero-value
// (Auto) engine on a typo.
func ParseAlgorithm(s string) (Algorithm, error) {
	if s == Auto.String() {
		return Auto, nil
	}
	for i, e := range engine.All {
		if s == e.Name {
			return Algorithm(i + 1), nil
		}
	}
	return 0, fmt.Errorf("bicc: unknown algorithm %q (valid: %v, %s)", s, Auto, strings.Join(engine.Names(), ", "))
}

// FallbackPolicy selects how BiconnectedComponentsCtx reacts when a
// parallel engine faults (panics, fails, or exceeds the per-attempt
// deadline).
type FallbackPolicy int

const (
	// FallbackNone returns engine faults to the caller unchanged — the
	// library's historical behavior. Panics are still contained and
	// surfaced as *par.PanicError values, never as crashes.
	FallbackNone FallbackPolicy = iota
	// FallbackSequential retries the faulted parallel engine once, and if
	// the retry faults too, degrades to the sequential Hopcroft–Tarjan
	// engine under the caller's context. The returned Result has Degraded
	// set and DegradedCause recording the parallel failure. Cancellation of
	// the caller's context is never retried or degraded: the caller is
	// gone, so its error is returned immediately.
	FallbackSequential
)

// Options configures a biconnected components run. The zero value (and nil)
// mean: Auto algorithm, GOMAXPROCS workers, no fallback.
type Options struct {
	// Algorithm selects the implementation; Auto applies the paper's
	// density rule.
	Algorithm Algorithm
	// Procs is the number of workers; <= 0 means GOMAXPROCS.
	Procs int
	// Context, when non-nil, attaches a deadline/cancellation to the run:
	// every engine polls it cooperatively and returns its error
	// (context.Canceled or context.DeadlineExceeded) promptly once it is
	// done. BiconnectedComponentsCtx overrides this field.
	Context context.Context
	// Fallback is the fault-handling policy for parallel engines; see
	// FallbackPolicy.
	Fallback FallbackPolicy
	// AttemptTimeout, when > 0 and Fallback is FallbackSequential, bounds
	// each parallel attempt: an attempt that runs longer is cooperatively
	// canceled with ErrAttemptTimeout and handled under the fallback
	// policy. The sequential fallback itself is bounded only by the
	// caller's context.
	AttemptTimeout time.Duration
}

// PhaseTiming is one timed step of the algorithm (the Fig. 4 breakdown).
type PhaseTiming struct {
	Name     string
	Duration time.Duration
}

// Result is a biconnected components decomposition.
type Result struct {
	// NumComponents is the number of blocks.
	NumComponents int
	// EdgeComponent maps each edge index to its dense block id in
	// [0, NumComponents).
	EdgeComponent []int32
	// Algorithm is the implementation that actually ran (Auto resolved;
	// Sequential when the run degraded to the fallback engine).
	Algorithm Algorithm
	// Phases is the per-step timing breakdown in execution order.
	Phases []PhaseTiming
	// Degraded reports that the requested parallel engine faulted and this
	// result was produced by the sequential fallback (still a fully correct
	// decomposition, just without parallel speedup).
	Degraded bool
	// DegradedCause is the parallel engine's failure that triggered the
	// fallback; nil unless Degraded.
	DegradedCause error

	g *graph.EdgeList
}

// ErrNilGraph is returned when a nil graph is supplied.
var ErrNilGraph = errors.New("bicc: nil graph")

// ErrAttemptTimeout is the cancellation cause installed when a parallel
// attempt outlives Options.AttemptTimeout. It is distinct from
// context.DeadlineExceeded so the supervisor can tell "this attempt was too
// slow" (retry, then degrade) from "the caller's deadline passed" (give up).
var ErrAttemptTimeout = errors.New("bicc: parallel attempt exceeded AttemptTimeout")

// ResolveAlgorithm reports the engine Auto selects for g at the given worker
// count under the static rule (the paper's density rule: Sequential for one
// worker, TVFilter when m >= 4n, TVOpt otherwise). Non-Auto algorithms
// resolve to themselves, and procs <= 0 means GOMAXPROCS, matching
// Options.Procs. Callers that serve a decomposition computed elsewhere
// (result reconstruction, incremental maintenance) use this to label it
// exactly as an Auto run would.
func ResolveAlgorithm(g *Graph, algo Algorithm, procs int) Algorithm {
	if algo != Auto {
		return algo
	}
	p := par.Procs(procs)
	switch {
	case p == 1:
		return Sequential
	case len(g.gr.Edges) >= 4*int(g.gr.N):
		return TVFilter
	default:
		return TVOpt
	}
}

// BiconnectedComponents computes the block decomposition of g. When
// opt.Context is non-nil the run honors its deadline/cancellation; see
// BiconnectedComponentsCtx.
func BiconnectedComponents(g *Graph, opt *Options) (*Result, error) {
	var ctx context.Context
	if opt != nil {
		ctx = opt.Context
	}
	return BiconnectedComponentsCtx(ctx, g, opt)
}

// BiconnectedComponentsCtx computes the block decomposition of g under ctx:
// the algorithms poll the context cooperatively (between pipeline phases and
// inside the engines' parallel loops) and return ctx's error promptly once
// it is canceled or its deadline passes. A nil ctx means
// context.Background(). The ctx argument takes precedence over opt.Context.
//
// The call is a fault boundary: engine panics are contained by the runtime
// and surface as *par.PanicError values, never as crashes. With
// Options.Fallback set to FallbackSequential, a parallel engine that
// panics, errors, or exceeds Options.AttemptTimeout is retried once and
// then replaced by the sequential engine; see FallbackPolicy.
func BiconnectedComponentsCtx(ctx context.Context, g *Graph, opt *Options) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	var o Options
	if opt != nil {
		o = *opt
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := par.Procs(o.Procs)
	algo := ResolveAlgorithm(g, o.Algorithm, p)
	eng, ok := algo.engine()
	if !ok {
		return nil, fmt.Errorf("bicc: unknown algorithm %v", o.Algorithm)
	}

	if o.Fallback != FallbackSequential || !eng.Parallel {
		res, err := runAttempt(ctx, g.gr, eng, p, 0, 0)
		if err != nil {
			return nil, err
		}
		return newResult(res, algo, g.gr.EdgeList), nil
	}

	// Supervised path: one retry for transient faults (a lost race, an
	// injected fault that won't recur), then degrade to the engine that
	// cannot share the parallel runtime's failure modes.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		res, err := runAttempt(ctx, g.gr, eng, p, o.AttemptTimeout, attempt)
		if err == nil {
			return newResult(res, algo, g.gr.EdgeList), nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller's context ended — possibly mid-attempt, in which
			// case err is the same cause. Never retry work nobody wants.
			return nil, cerr
		}
		lastErr = err
	}
	seq, _ := Sequential.engine()
	res, err := runAttempt(ctx, g.gr, seq, 1, 0, 2)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("bicc: sequential fallback (after %v) failed: %w", lastErr, err)
	}
	out := newResult(res, Sequential, g.gr.EdgeList)
	out.Degraded = true
	out.DegradedCause = lastErr
	return out, nil
}

// runAttempt executes one engine run under its own cancellation token,
// watching the caller's context and, when attemptTimeout > 0, a per-attempt
// deadline that cancels with ErrAttemptTimeout. When the context carries an
// obs trace, the run becomes one span named after the engine (labeled
// with the attempt number and worker count) with a child span per pipeline
// phase, so ?trace=1 on bccd shows exactly which attempt ran which phases.
func runAttempt(ctx context.Context, g *graph.Graph, eng engine.Engine, p int, attemptTimeout time.Duration, attempt int) (res *core.Result, err error) {
	cancel := &par.Canceler{}
	stop := cancel.Watch(ctx)
	defer stop()
	if attemptTimeout > 0 {
		t := time.AfterFunc(attemptTimeout, func() { cancel.Cancel(ErrAttemptTimeout) })
		defer t.Stop()
	}
	_, sp := obs.StartSpan(ctx, eng.Name)
	sp.SetLabel("attempt", strconv.Itoa(attempt))
	sp.SetLabel("procs", strconv.Itoa(p))
	defer func() {
		if err != nil {
			sp.SetLabel("error", err.Error())
		}
		sp.End()
	}()
	return eng.Run(cancel, sp, p, g)
}

// newResult converts a core result into the public shape and, when
// observability is on, feeds the per-phase histograms on the process-wide
// registry.
func newResult(res *core.Result, algo Algorithm, el *graph.EdgeList) *Result {
	out := &Result{
		NumComponents: res.NumComp,
		EdgeComponent: res.EdgeComp,
		Algorithm:     algo,
		g:             el,
	}
	obsOn := obs.Enabled()
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, PhaseTiming{Name: ph.Name, Duration: ph.Duration})
		if obsOn {
			phaseSeconds.With(algo.String(), ph.Name).Observe(ph.Duration)
		}
	}
	return out
}

// ArticulationPoints returns the cut vertices implied by the decomposition:
// the vertices whose incident edges span at least two blocks. The slice is
// sorted by vertex id.
func (r *Result) ArticulationPoints() []int32 {
	return core.Articulation(r.g, r.EdgeComponent)
}

// Bridges returns the indices of bridge edges (blocks of exactly one edge),
// sorted by edge index.
func (r *Result) Bridges() []int32 {
	return core.Bridges(r.g, r.EdgeComponent, r.NumComponents)
}

// Components groups edge indices by block: element k lists the edges of
// block k.
func (r *Result) Components() [][]int32 {
	out := make([][]int32, r.NumComponents)
	for i, c := range r.EdgeComponent {
		out[c] = append(out[c], int32(i))
	}
	return out
}

// IsBiconnected reports whether the whole graph is one biconnected
// component: all edges in a single block and every vertex incident to it
// (so no isolated vertices and no cut vertices).
func (r *Result) IsBiconnected() bool {
	if r.NumComponents != 1 || len(r.EdgeComponent) == 0 {
		return false
	}
	touched := make([]bool, r.g.N)
	for _, e := range r.g.Edges {
		touched[e.U] = true
		touched[e.V] = true
	}
	for _, t := range touched {
		if !t {
			return false
		}
	}
	return true
}
