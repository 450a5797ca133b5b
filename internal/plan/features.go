// Package plan is the query planner: given a graph's vertex and edge counts
// it picks which biconnected-components engine to run and at what
// parallelism degree, replacing the paper's static §4 rule ("TV-filter when
// m >= 4n, TV-opt otherwise, sequential at p=1") with a per-request
// decision.
//
// Each (engine, procs) candidate is scored by a cost model fitted to timed
// engine runs (prior.go): each engine's time relative to the sequential
// baseline's on the same input, at p=1 and p=2, below and above the size
// where the baseline's cost per edge jumps. The cheapest candidate wins.
//
// Decisions never affect answers — every engine produces the same canonical
// labeling — only latency. A decision is a pure function of n, m, the pinned
// parallelism degree and the engine filter, so identical requests always
// dispatch identically. It reads no edge, so planning costs the same O(1)
// on every graph.
package plan

import (
	"math/bits"

	"bicc/internal/graph"
)

// Features is the planner's view of a graph: its counts and the classes
// derived from them.
type Features struct {
	// N and M are the vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Density is m/n (0 for an empty graph) — the axis of the paper's §4
	// rule.
	Density float64 `json:"density"`

	// SizeClass buckets n + m by powers of 16; the prior's cost regime is
	// read from it. DensityClass buckets Density at the paper's thresholds
	// (< 2, [2, 4), >= 4), for comparison with the §4 rule.
	SizeClass    int `json:"size_class"`
	DensityClass int `json:"density_class"`
	// DiamClass is always 0: the planner measures no diameter. The
	// repository benchmark's plan.Extract kernel is its only reader.
	DiamClass int `json:"-"`
}

// work is the planner's size measure: vertices plus both edge directions,
// the unit every engine's running time is linear in.
func (f Features) work() float64 {
	return float64(f.N) + 2*float64(f.M)
}

// Of returns the features of a graph with n vertices and m edges.
func Of(n, m int) Features {
	f := Features{N: n, M: m}
	if n > 0 {
		f.Density = float64(m) / float64(n)
	}
	f.SizeClass = sizeClass(n + m)
	f.DensityClass = densityClass(f.Density)
	return f
}

// Extract returns the features of g. It reads g's counts alone, so the
// worker count p is unused.
func Extract(_ int, g *graph.EdgeList) Features {
	return Of(int(g.N), len(g.Edges))
}

// sizeClass buckets n + m by powers of 16: 0 for < 16, 1 for < 256, …
// Nine classes cover anything that fits in memory.
func sizeClass(size int) int {
	if size < 0 {
		size = 0
	}
	return min((bits.Len(uint(size))+3)/4, 8)
}

// densityClass buckets m/n at the paper's §4 thresholds.
func densityClass(density float64) int {
	switch {
	case density >= 4:
		return 2
	case density >= 2:
		return 1
	default:
		return 0
	}
}
