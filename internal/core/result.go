// Package core implements the paper's biconnected components algorithms:
// the sequential Hopcroft–Tarjan baseline ("Sequential" in Fig. 3), the
// direct SMP emulation of Tarjan–Vishkin (TV-SMP, §3.1), the optimized
// adaptation (TV-opt, §3.2), and the new edge-filtering algorithm
// (TV-filter, §4 / Alg. 2) and FAST-BCC as presets of one pipeline
// (Custom), plus Alg. 1's auxiliary graph as a mask over G's own edges and
// the label pass after it, which every preset shares.
package core

import (
	"sync/atomic"
	"time"

	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/prefix"
)

// Phase names matching the Fig. 4 breakdown.
const (
	// PhaseToCSR is the edge-list to CSR conversion, recorded only by the
	// engine run that builds a graph's CSR (or waits for a concurrent run
	// building it); later runs on the same graph reuse it and record no
	// such phase. TV-SMP reads no CSR itself, but above the size floor of
	// graph.Graph.Local the run that decides a graph's local view converts
	// it, whatever the engine.
	PhaseToCSR = "to-csr"
	// PhaseRelabel is graph.Graph.Local's decision: the sampled id spread,
	// the bounded probe and, when the probe finds locality to recover, the
	// BFS relabeling. Only the run that decides records it.
	PhaseRelabel      = "relabel"
	PhaseSpanningTree = "spanning-tree"
	PhaseEulerTour    = "euler-tour"
	PhaseRoot         = "root"
	PhaseLowHigh      = "low-high"
	PhaseLabelEdge    = "label-edge"
	PhaseConnComp     = "connected-components"
	PhaseFiltering    = "filtering"
)

// PhaseOrder is the canonical ordering of phases for breakdown reports.
var PhaseOrder = []string{
	PhaseToCSR, PhaseRelabel, PhaseSpanningTree, PhaseEulerTour, PhaseRoot,
	PhaseLowHigh, PhaseLabelEdge, PhaseConnComp, PhaseFiltering,
}

// Phase is one timed step of an algorithm run.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Result is the biconnected components decomposition of a graph.
type Result struct {
	// NumComp is the number of biconnected components (blocks). Every edge
	// belongs to exactly one; a bridge forms a singleton block.
	NumComp int
	// EdgeComp[i] is the dense block id (0..NumComp-1) of edge i.
	EdgeComp []int32
	// Phases is the per-step timing breakdown (Fig. 4), in execution order.
	Phases []Phase
}

// PhaseDuration returns the total duration recorded under name.
func (r *Result) PhaseDuration(name string) time.Duration {
	var d time.Duration
	for _, ph := range r.Phases {
		if ph.Name == name {
			d += ph.Duration
		}
	}
	return d
}

// Total returns the sum of all phase durations.
func (r *Result) Total() time.Duration {
	var d time.Duration
	for _, ph := range r.Phases {
		d += ph.Duration
	}
	return d
}

// Stopwatch accumulates named phases. When constructed with a span it also
// emits every lap as a completed child span, so the Result.Phases breakdown
// and an attached obs trace are two views of the same measurements and can
// never disagree. It is exported so the engine table (internal/engine)
// records the laps of a graph's local view through the same mechanism as
// the engines.
type Stopwatch struct {
	phases []Phase
	last   time.Time
	span   *obs.Span
}

// NewStopwatch returns a stopwatch whose laps are mirrored as child spans of
// sp (a nil sp records no spans).
func NewStopwatch(sp *obs.Span) *Stopwatch {
	return &Stopwatch{last: time.Now(), span: sp}
}

// Lap records the time since the previous lap (or construction) under name.
func (s *Stopwatch) Lap(name string) { s.LapAt(name, time.Now()) }

// LapAt records the time from the previous lap (or construction) to at,
// an instant that has passed, under name.
func (s *Stopwatch) LapAt(name string, at time.Time) {
	s.phases = append(s.phases, Phase{Name: name, Duration: at.Sub(s.last)})
	s.span.ChildInterval(name, s.last, at)
	s.last = at
}

// Phases returns the laps recorded so far.
func (s *Stopwatch) Phases() []Phase { return s.phases }

// Articulation returns the articulation points (cut vertices) implied by a
// block decomposition: a vertex is an articulation point exactly when its
// incident edges fall into at least two distinct blocks. The scan over
// edges runs on GOMAXPROCS workers; any-writer-wins races on the per-vertex
// "first block seen" slot are resolved with CAS, and a disagreeing second
// writer marks the vertex as a cut.
func Articulation(g *graph.EdgeList, edgeComp []int32) []int32 {
	p := par.Procs(0)
	first := make([]int32, g.N) // first block seen per vertex, -1 none
	multi := make([]int32, g.N) // 0/1 flag, written racily (idempotent)
	par.For(p, int(g.N), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			first[i] = -1
		}
	})
	par.ForDynamic(p, len(g.Edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			c := edgeComp[i]
			for _, v := range [2]int32{e.U, e.V} {
				cur := atomic.LoadInt32(&first[v])
				if cur == -1 && atomic.CompareAndSwapInt32(&first[v], -1, c) {
					continue
				}
				if atomic.LoadInt32(&first[v]) != c {
					atomic.StoreInt32(&multi[v], 1)
				}
			}
		}
	})
	cutIdx := prefix.Compact(p, int(g.N), func(v int) bool { return multi[v] != 0 })
	return cutIdx
}

// Bridges returns the indices of bridge edges: edges whose block contains
// exactly one edge. Block sizes are counted in one sequential pass: with
// an atomic add per edge, the workers would contend on the counter of the
// graph's big block.
func Bridges(g *graph.EdgeList, edgeComp []int32, numComp int) []int32 {
	count := make([]int32, numComp)
	for _, c := range edgeComp {
		count[c]++
	}
	return prefix.Compact(par.Procs(0), len(edgeComp), func(i int) bool { return count[edgeComp[i]] == 1 })
}
