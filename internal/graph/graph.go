// Package graph provides the two input representations the paper's
// algorithms move between — a flat undirected edge list and a CSR adjacency
// structure — plus validation, normalization, and conversions. The paper
// singles out representation conversion as one of the two costs that hinder
// fast parallel implementations (§1); keeping both representations explicit
// lets the benchmarks measure that cost directly.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/prefix"
)

// Edge is one undirected edge {U, V}. Vertex ids are int32 since the paper's
// instances (1M vertices, 20M edges) fit comfortably and the narrower type
// halves memory traffic, which matters on bandwidth-bound SMP codes.
type Edge struct {
	U, V int32
}

// EdgeList is an undirected graph as a flat edge list over vertices [0, N).
type EdgeList struct {
	N     int32
	Edges []Edge
}

// M returns the number of edges.
func (g *EdgeList) M() int { return len(g.Edges) }

// Clone returns a deep copy.
func (g *EdgeList) Clone() *EdgeList {
	return &EdgeList{N: g.N, Edges: append([]Edge(nil), g.Edges...)}
}

// Normalize returns a simple graph: self loops dropped, parallel edges
// deduplicated (keeping the first occurrence order), endpoints untouched.
// It reports how many self loops and duplicates were removed.
func (g *EdgeList) Normalize() (out *EdgeList, loops, dups int) {
	seen := make(map[uint64]struct{}, len(g.Edges))
	edges := make([]Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e.U == e.V {
			loops++
			continue
		}
		key := CanonKey(e.U, e.V)
		if _, ok := seen[key]; ok {
			dups++
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, e)
	}
	return &EdgeList{N: g.N, Edges: edges}, loops, dups
}

// CanonKey packs an undirected edge into a canonical uint64 (min(u,v) in the
// high word) usable as a map key or radix-sort key.
func CanonKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// CSR is a compressed-sparse-row adjacency structure for an undirected
// graph: each undirected edge {u,v} appears as the two arcs (u,v) and
// (v,u). Adj[Off[v]:Off[v+1]] lists the neighbors of v, and EdgeID carries
// the index of the originating undirected edge for each arc, so algorithms
// can label edges while traversing adjacencies.
type CSR struct {
	N      int32
	Off    []int32 // length N+1
	Adj    []int32 // length 2m, neighbor ids
	EdgeID []int32 // length 2m, undirected edge index per arc
}

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int32) int32 { return c.Off[v+1] - c.Off[v] }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.Adj) / 2 }

// Neighbors returns the adjacency slice of v (do not modify).
func (c *CSR) Neighbors(v int32) []int32 { return c.Adj[c.Off[v]:c.Off[v+1]] }

// conversions counts ToCSR calls. A graph built by New converts once, at
// construction; one built by Wrap, on the first call that needs its
// adjacency (Graph.CSR or Graph.Local).
var conversions = obs.Default().Counter("bicc_csr_conversions_total",
	"Edge-list to CSR conversions. A graph converts once: an uploaded, read or decoded graph when it is built and checked, a generated or mutated one on the first engine run or query that needs its adjacency; a graph with a local view drops that CSR and converts again only for a query that reads adjacency in its own ids.")

// Graph is an immutable edge list together with its CSR, which every
// consumer that needs adjacency shares: the engines, the sparse
// certificate and the analysis helpers all read it, so a resident graph
// pays the paper's representation conversion (§1) once instead of on
// every call. New builds the CSR with the graph, as the step that checks
// it; Wrap leaves it to the first consumer. Above a size floor the graph
// may also hold a local view for the engines (Local), built once by the
// first engine run. Neither the edge list nor the CSR may be modified.
type Graph struct {
	*EdgeList
	mu  sync.Mutex
	csr atomic.Pointer[CSR]
	// local is Local's decision once made: the view, or the graph itself.
	local atomic.Pointer[Graph]
}

// Bytes returns what the graph holds: its edge list, its local view (edge
// list, CSR) once built, and its own CSR, which New builds with the graph
// and a wrapped graph is charged for before its first solve builds it.
func (g *Graph) Bytes() int64 {
	if l := g.local.Load(); l != nil && l != g {
		return 8*int64(len(g.Edges)) + 64 + l.Bytes() + csrBytes(g.csr.Load())
	}
	return ResidentBytes(int64(g.N), int64(len(g.Edges)))
}

// ResidentBytes is what Bytes charges a graph of n vertices and m edges
// with no local view: 8m for its edge list, 16m + 4(n+1) for its CSR and
// 64 for headers. It allocates nothing, so a caller can refuse a graph by
// its counts before anything is sized by them.
func ResidentBytes(n, m int64) int64 { return 24*m + 4*(n+1) + 64 }

// csrBytes is c's size, 0 for nil.
func csrBytes(c *CSR) int64 {
	if c == nil {
		return 0
	}
	return 4 * int64(len(c.Off)+len(c.Adj)+len(c.EdgeID))
}

// Wrap returns el as a Graph whose CSR is not built yet, for an edge list
// that is simple by construction: a generator's, a subgraph's or a
// mutation batch's. The caller must not modify el afterwards.
func Wrap(el *EdgeList) *Graph { return &Graph{EdgeList: el} }

// New checks that el is a simple graph and returns it as a Graph holding
// its CSR, converted with p workers: endpoints must be in range, no edge
// may be a self loop, and no edge may repeat an earlier one in either
// orientation. The error names the first offending edge; Normalize drops
// loops and duplicates instead. The duplicate check is one pass over the
// CSR, whose arcs at each vertex are in edge-id order: the first arc at v
// whose neighbour is already stamped v+1 is the least repeat at v. The
// stamps reuse the conversion's cursor array. The caller must not modify
// el afterwards.
func New(el *EdgeList, p int) (*Graph, error) {
	if el.N < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", el.N)
	}
	for i, e := range el.Edges {
		if e.U < 0 || e.U >= el.N || e.V < 0 || e.V >= el.N {
			return nil, fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, el.N)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: edge %d is a self loop at %d", i, e.U)
		}
	}
	c, stamp := toCSR(p, el)
	clear(stamp)
	first := -1
	for v := int32(0); v < c.N; v++ {
		for a := c.Off[v]; a < c.Off[v+1]; a++ {
			w := c.Adj[a]
			if stamp[w] == v+1 {
				if i := int(c.EdgeID[a]); first < 0 || i < first {
					first = i
				}
				break
			}
			stamp[w] = v + 1
		}
	}
	if first >= 0 {
		e := el.Edges[first]
		return nil, fmt.Errorf("graph: duplicate edge %d (%d,%d)", first, e.U, e.V)
	}
	g := Wrap(el)
	g.csr.Store(c)
	return g, nil
}

// CSR returns the graph's CSR, converting with p workers if no call has
// yet. fresh reports that the CSR did not exist when the call began, so
// the call paid for it: it converted, or waited while a concurrent first
// call did. Concurrent first calls convert once; a conversion that panics
// caches nothing, and the next call converts again.
func (g *Graph) CSR(p int) (c *CSR, fresh bool) {
	if c = g.csr.Load(); c != nil {
		return c, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c = g.csr.Load(); c == nil {
		c = ToCSR(p, g.EdgeList)
		g.csr.Store(c)
	}
	return c, true
}

// ToCSR converts an edge list to CSR using p workers: a per-worker count
// of each block of edges' arcs at every vertex (atomic-free), one pass over
// the vertices that sums the counts into degrees and turns them into each
// worker's first slot past the vertex's offset, a prefix sum over the
// offsets, and a scatter in which each worker writes its own slots. Worker
// blocks ascend, so each vertex lists its arcs in edge-id order. This is
// the conversion cost the paper charges to algorithms whose primitives
// disagree on representation.
func ToCSR(p int, g *EdgeList) *CSR {
	c, _ := toCSR(p, g)
	return c
}

// toCSR is ToCSR, also returning a cursor array of the scatter: n entries
// of scratch, which New reuses. It runs at most 2m/n workers: past that a
// worker sums more counts (n) than it counts arcs (2m/p), and the counts
// (4pn bytes) would outweigh the edges (8m). A list with fewer edges than
// vertices, or fewer than 2^16 edges, converts sequentially.
func toCSR(p int, g *EdgeList) (*CSR, []int32) {
	conversions.Inc()
	n := int(g.N)
	m := len(g.Edges)
	p = min(par.Procs(p), max(1, 2*m/max(n, 1)))
	if m < 1<<16 {
		p = 1
	}
	off := make([]int32, n+1)
	counts := make([][]int32, p)
	if p == 1 {
		for _, e := range g.Edges {
			off[e.U+1]++
			off[e.V+1]++
		}
		counts[0] = make([]int32, n)
	} else {
		par.ForWorker(p, m, func(w, lo, hi int) {
			c := make([]int32, n)
			for _, e := range g.Edges[lo:hi] {
				c[e.U]++
				c[e.V]++
			}
			counts[w] = c
		})
		par.For(p, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := int32(0)
				for _, c := range counts {
					c[v], sum = sum, sum+c[v]
				}
				off[v+1] = sum
			}
		})
	}
	// off[0] is 0, so the inclusive scan leaves off[v] = the arcs before v.
	prefix.InclusiveSum32(p, off)
	adj := make([]int32, 2*m)
	eid := make([]int32, 2*m)
	par.ForWorker(p, m, func(w, lo, hi int) {
		c := counts[w]
		for i, e := range g.Edges[lo:hi] {
			id := int32(lo + i)
			a := off[e.U] + c[e.U]
			c[e.U]++
			adj[a] = e.V
			eid[a] = id
			b := off[e.V] + c[e.V]
			c[e.V]++
			adj[b] = e.U
			eid[b] = id
		}
	})
	return &CSR{N: g.N, Off: off, Adj: adj, EdgeID: eid}, counts[0]
}
