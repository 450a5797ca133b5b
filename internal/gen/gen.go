// Package gen generates the graph families used by the paper's evaluation
// and by our tests:
//
//   - Random(n, m): the paper's workload — m distinct edges added uniformly
//     at random over n vertices (§5: "We create a random graph of n vertices
//     and m edges by randomly adding m unique edges to the vertex set").
//   - RandomConnected(n, m): the same, seeded with a random spanning tree so
//     the instance is connected (the paper's algorithms assume a connected
//     input).
//   - Mesh / Torus: regular sparse graphs with large diameter.
//   - Chain: the pathological d = O(n) case discussed in §4.
//   - Dense(n, frac): graphs retaining a fraction of all possible edges, the
//     Woo–Sahni style inputs mentioned in §1.
//   - Trees, cycles, stars, caterpillars and block graphs for unit tests
//     with known biconnectivity structure.
//
// All generators are deterministic in their seed.
package gen

import (
	"math/rand"

	"bicc/internal/graph"
)

// Random returns a graph with n vertices and m distinct uniformly random
// edges (no self loops, no duplicates). It panics if m exceeds the number of
// possible edges.
func Random(n, m int, seed int64) *graph.EdgeList {
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic("gen: m exceeds n(n-1)/2")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.EdgeList{N: int32(n), Edges: make([]graph.Edge, 0, m)}
	seen := make(map[uint64]struct{}, m)
	for len(g.Edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		k := graph.CanonKey(u, v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
	}
	return g
}

// RandomConnected returns a connected graph with n vertices and m >= n-1
// edges: a uniform random spanning tree (random attachment) plus m-(n-1)
// distinct random nontree edges.
func RandomConnected(n, m int, seed int64) *graph.EdgeList {
	if n > 0 && m < n-1 {
		panic("gen: connected graph needs m >= n-1")
	}
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic("gen: m exceeds n(n-1)/2")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.EdgeList{N: int32(n), Edges: make([]graph.Edge, 0, m)}
	seen := make(map[uint64]struct{}, m)
	// Random spanning tree: attach each vertex i>0 to a uniformly random
	// earlier vertex, then shuffle labels implicitly via the rng-driven
	// attachment (adequate for benchmarking; exact uniform spanning trees
	// are not required by the paper).
	for i := 1; i < n; i++ {
		j := int32(rng.Intn(i))
		k := graph.CanonKey(int32(i), j)
		seen[k] = struct{}{}
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: j})
	}
	for len(g.Edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		k := graph.CanonKey(u, v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
	}
	return g
}

// Mesh returns an r x c grid graph (vertices numbered row-major), a regular
// sparse graph with diameter r+c-2. Every interior face is a 4-cycle, so the
// whole mesh is one biconnected component when r, c >= 2.
func Mesh(r, c int) *graph.EdgeList {
	g := &graph.EdgeList{N: int32(r * c)}
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.Edges = append(g.Edges, graph.Edge{U: id(i, j), V: id(i, j+1)})
			}
			if i+1 < r {
				g.Edges = append(g.Edges, graph.Edge{U: id(i, j), V: id(i+1, j)})
			}
		}
	}
	return g
}

// Torus returns an r x c torus (mesh with wraparound), 4-regular when
// r, c >= 3.
func Torus(r, c int) *graph.EdgeList {
	g := &graph.EdgeList{N: int32(r * c)}
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if c > 1 {
				g.Edges = append(g.Edges, graph.Edge{U: id(i, j), V: id(i, (j+1)%c)})
			}
			if r > 1 {
				g.Edges = append(g.Edges, graph.Edge{U: id(i, j), V: id((i+1)%r, j)})
			}
		}
	}
	out, _, _ := g.Normalize() // r or c == 2 creates duplicate wrap edges
	return out
}

// Chain returns a path on n vertices — the paper's pathological diameter
// case (§4): every edge is a bridge and its own biconnected component.
func Chain(n int) *graph.EdgeList {
	g := &graph.EdgeList{N: int32(n)}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return g
}

// Cycle returns a simple cycle on n >= 3 vertices: exactly one biconnected
// component and no articulation points.
func Cycle(n int) *graph.EdgeList {
	g := Chain(n)
	if n >= 3 {
		g.Edges = append(g.Edges, graph.Edge{U: int32(n - 1), V: 0})
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves: n-1 bridge components,
// and the center is an articulation point when n >= 3.
func Star(n int) *graph.EdgeList {
	g := &graph.EdgeList{N: int32(n)}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: 0, V: int32(i)})
	}
	return g
}

// Dense returns a graph retaining the given fraction (0,1] of all n(n-1)/2
// possible edges, chosen uniformly — the Woo–Sahni experimental regime
// (70%/90% of complete graphs).
func Dense(n int, frac float64, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	g := &graph.EdgeList{N: int32(n)}
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < frac {
				g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return g
}

// BinaryTree returns a complete binary tree on n vertices (parent of i is
// (i-1)/2): every edge is a bridge, every internal vertex an articulation
// point.
func BinaryTree(n int) *graph.EdgeList {
	g := &graph.EdgeList{N: int32(n)}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32((i - 1) / 2)})
	}
	return g
}

// Caterpillar returns a path of spine vertices each carrying legs leaf
// vertices; a stress test for skewed degree distributions.
func Caterpillar(spine, legs int) *graph.EdgeList {
	n := spine * (1 + legs)
	g := &graph.EdgeList{N: int32(n)}
	for i := 0; i+1 < spine; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	next := int32(spine)
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: next})
			next++
		}
	}
	return g
}

// BlockChain returns k cliques of size c chained by cut vertices: clique i
// and clique i+1 share one vertex. Each clique is one biconnected component
// and every shared vertex is an articulation point; the exact structure
// makes it a sharp correctness fixture.
func BlockChain(k, c int) *graph.EdgeList {
	if c < 2 {
		panic("gen: clique size must be >= 2")
	}
	// Vertices: clique i occupies [i*(c-1), i*(c-1)+c), so consecutive
	// cliques share vertex i*(c-1)+c-1.
	n := k*(c-1) + 1
	g := &graph.EdgeList{N: int32(n)}
	for i := 0; i < k; i++ {
		base := int32(i * (c - 1))
		for a := int32(0); a < int32(c); a++ {
			for b := a + 1; b < int32(c); b++ {
				g.Edges = append(g.Edges, graph.Edge{U: base + a, V: base + b})
			}
		}
	}
	return g
}

// Disconnected returns the disjoint union of the given graphs, relabeling
// vertices consecutively.
func Disconnected(parts ...*graph.EdgeList) *graph.EdgeList {
	g := &graph.EdgeList{}
	for _, p := range parts {
		off := g.N
		for _, e := range p.Edges {
			g.Edges = append(g.Edges, graph.Edge{U: e.U + off, V: e.V + off})
		}
		g.N += p.N
	}
	return g
}

// PreferentialAttachment returns a scale-free graph by the Barabási–Albert
// process: vertices arrive one at a time and attach k edges to existing
// vertices chosen proportionally to degree (with duplicate targets
// rejected). Skewed degree distributions stress the load balancing of the
// union-find and traversal loops.
func PreferentialAttachment(n, k int, seed int64) *graph.EdgeList {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.EdgeList{N: int32(n)}
	if n == 0 {
		return g
	}
	// endpointPool holds each edge endpoint once: sampling uniformly from
	// it is degree-proportional sampling.
	pool := make([]int32, 0, 2*MaxAttached(n, k))
	seen := map[uint64]struct{}{}
	for v := 1; v < n; v++ {
		attach := k
		if attach > v {
			attach = v
		}
		added := 0
		for tries := 0; added < attach && tries < 20*attach; tries++ {
			var u int32
			if len(pool) == 0 {
				u = int32(rng.Intn(v))
			} else if rng.Intn(2) == 0 {
				// Mix uniform choice in so early vertices do not
				// monopolize everything (and v=1 can attach to 0).
				u = int32(rng.Intn(v))
			} else {
				u = pool[rng.Intn(len(pool))]
			}
			if int(u) >= v {
				continue
			}
			key := graph.CanonKey(int32(v), u)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			g.Edges = append(g.Edges, graph.Edge{U: int32(v), V: u})
			pool = append(pool, int32(v), u)
			added++
		}
	}
	return g
}

// MaxAttached returns how many edges PreferentialAttachment(n, k, ·) can
// attach at most: vertex v attaches min(k, v) of them, so the count is at
// most n(n-1)/2 however large k is.
func MaxAttached(n, k int) int64 {
	if n < 2 {
		return 0
	}
	kk := int64(min(max(k, 1), n-1))
	return kk*(kk+1)/2 + (int64(n)-1-kk)*kk
}

// Geometric returns a random geometric graph: n points uniform in the unit
// square, edges between pairs within distance r. Locality-heavy adjacency
// exercises cache behaviour differently from uniform G(n,m).
func Geometric(n int, r float64, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := &graph.EdgeList{N: int32(n)}
	// Grid hashing: only compare points in neighboring cells.
	if r <= 0 {
		return g
	}
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) (int, int) {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	grid := map[[2]int][]int32{}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		grid[[2]int{cx, cy}] = append(grid[[2]int{cx, cy}], int32(i))
	}
	r2 := r * r
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{cx + dx, cy + dy}] {
					if j <= int32(i) {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: j})
					}
				}
			}
		}
	}
	return g
}
