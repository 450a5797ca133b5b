// Package plan is the query planner: given a graph's shape it picks which
// biconnected-components engine to run and at what parallelism degree,
// replacing the paper's static §4 rule ("TV-filter when m >= 4n, TV-opt
// otherwise, sequential at p=1") with a per-request decision.
//
// Each (engine, procs) candidate is scored by a prior cost model over cheap
// graph features — size, density and a diameter class — that encodes the
// paper's experimental findings plus the FAST-BCC promotion gate (the
// skeleton engine beats every TV variant at low processor counts on every
// density, BENCH_2.json). The cheapest candidate wins.
//
// Decisions never affect answers — every engine produces the same canonical
// labeling — only latency. A decision is a pure function of the feature
// vector, the pinned parallelism degree and the engine filter, so identical
// requests always dispatch identically.
package plan

import (
	"math/bits"

	"bicc/internal/graph"
)

// Diameter classes, from the BFS-forest depth estimate relative to log n:
// random graphs sit near the Palmer bound (diameter ~2, class low), meshes
// and small-world graphs in the middle, chains and lollipops high. TV-filter
// and FAST-BCC both run level-synchronous BFS phases costing O(d) rounds, so
// the class is the prior's main lever against the paper's rule.
const (
	DiamLow = iota
	DiamMid
	DiamHigh
)

// Features is the per-graph feature vector the planner decides from. All
// fields derive from one O(n + m) two-sweep BFS, cached per graph, so
// planning adds no per-request asymptotics.
type Features struct {
	// N and M are the vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Density is m/n (0 for an empty graph) — the axis of the paper's §4
	// rule.
	Density float64 `json:"density"`
	// Depth is the two-sweep BFS diameter estimate (exact on trees, a tight
	// lower bound in practice), measured in the component of the first edge's
	// endpoint.
	Depth int32 `json:"depth"`

	// SizeClass buckets total work n + m by powers of 16, DensityClass
	// buckets Density at the paper's thresholds (< 2, [2, 4), >= 4), and
	// DiamClass compares Depth against log n (DiamLow/Mid/High).
	SizeClass    int `json:"size_class"`
	DensityClass int `json:"density_class"`
	DiamClass    int `json:"diam_class"`
}

// work is the planner's size measure: vertices plus both edge directions,
// the unit every engine's running time is linear in (diameter terms aside).
func (f Features) work() float64 {
	return float64(f.N) + 2*float64(f.M)
}

// Extract computes the feature vector of g with p analysis workers. It is
// total on arbitrary inputs: empty, edgeless, and disconnected graphs all
// produce in-range classes.
func Extract(p int, g *graph.EdgeList) Features {
	f := Features{N: int(g.N), M: len(g.Edges)}
	if f.N > 0 {
		f.Density = float64(f.M) / float64(f.N)
	}
	if f.M > 0 {
		// Sweep from an endpoint of the first edge, not vertex 0: vertex 0
		// may be isolated, and an edgeless component says nothing about the
		// part of the graph the engines will spend their time in.
		f.Depth = graph.DiameterTwoSweep(p, g, g.Edges[0].U)
	}
	f.SizeClass = sizeClass(f.N + f.M)
	f.DensityClass = densityClass(f.Density)
	f.DiamClass = diamClass(f.Depth, f.N)
	return f
}

// sizeClass buckets total work by powers of 16: 0 for < 16, 1 for < 256, …
// Nine classes cover anything that fits in memory.
func sizeClass(work int) int {
	if work < 0 {
		work = 0
	}
	c := (bits.Len(uint(work)) + 3) / 4
	if c > 8 {
		c = 8
	}
	return c
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

// diamClass compares the depth estimate against log2 n: random graphs have
// depth O(log n) (class low), anything past 16·log n behaves like a chain
// (class high).
func diamClass(depth int32, n int) int {
	logn := bits.Len(uint(n))
	if logn < 1 {
		logn = 1
	}
	switch {
	case int(depth) > 16*logn:
		return DiamHigh
	case int(depth) > 2*logn:
		return DiamMid
	default:
		return DiamLow
	}
}
