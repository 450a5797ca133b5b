package graph

import (
	"bicc/internal/par"
)

// Analysis utilities supporting the paper's §4 running-time discussion:
// TV-filter runs in O(d + log n) where d is the graph diameter, so the
// harness reports d alongside timings; Palmer's theorem ("almost all random
// graphs have diameter two", cited as [15]) is checked empirically in the
// tests.

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int32
	Mean     float64
	Isolated int // vertices with degree 0
}

// Degrees returns per-vertex degrees and summary statistics.
func Degrees(p int, g *EdgeList) ([]int32, DegreeStats) {
	deg := make([]int32, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	st := DegreeStats{Min: 1 << 30}
	if g.N == 0 {
		st.Min = 0
		return deg, st
	}
	var sum int64
	for _, d := range deg {
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		if d == 0 {
			st.Isolated++
		}
		sum += int64(d)
	}
	st.Mean = float64(sum) / float64(g.N)
	_ = p
	return deg, st
}

// bfsDistances fills dist (which must be len N, will be overwritten) with
// hop counts from src, returning the eccentricity of src within its
// component and the number of reached vertices.
func bfsDistances(c *CSR, src int32, dist []int32, queue []int32) (ecc int32, reached int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	reached = 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		if dv > ecc {
			ecc = dv
		}
		for _, w := range c.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dv + 1
				reached++
				queue = append(queue, w)
			}
		}
	}
	return ecc, reached
}

// Diameter computes the exact diameter of g: the largest eccentricity over
// all vertices, taken per connected component (infinite distances between
// components are ignored; an edgeless graph has diameter 0). Cost is one
// BFS per vertex — O(n(n+m)) — so use it for analysis-sized graphs and
// DiameterTwoSweep for large ones. The BFS runs use p workers.
func Diameter(p int, c *CSR) int32 {
	n := int(c.N)
	if n == 0 {
		return 0
	}
	p = par.Procs(p)
	if p > n {
		p = n
	}
	return par.MaxInt32(p, p, 0, func(w int) int32 {
		lo, hi := par.Block(n, p, w)
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		best := int32(0)
		for v := lo; v < hi; v++ {
			ecc, _ := bfsDistances(c, int32(v), dist, queue)
			if ecc > best {
				best = ecc
			}
		}
		return best
	})
}

// DiameterTwoSweep returns a lower bound on the diameter using the classic
// double-sweep heuristic: BFS from a start vertex, then BFS from the
// farthest vertex found. Exact on trees; a tight estimate in practice.
func DiameterTwoSweep(c *CSR, start int32) int32 {
	if c.N == 0 {
		return 0
	}
	dist := make([]int32, c.N)
	queue := make([]int32, 0, c.N)
	bfsDistances(c, start, dist, queue)
	far := start
	for v := int32(0); v < c.N; v++ {
		if dist[v] > dist[far] {
			far = v
		}
	}
	ecc, _ := bfsDistances(c, far, dist, queue)
	return ecc
}

// IsConnected reports whether the graph is connected (vacuously true for
// n <= 1).
func IsConnected(c *CSR) bool {
	if c.N <= 1 {
		return true
	}
	dist := make([]int32, c.N)
	queue := make([]int32, 0, c.N)
	_, reached := bfsDistances(c, 0, dist, queue)
	return reached == int(c.N)
}
