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

// Validate checks that all endpoints are in range, that the list has no
// self loops, and that no edge repeats an earlier one in either
// orientation; the error names the first offending edge. Call Normalize to
// drop loops and duplicates instead.
func (g *EdgeList) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self loop at %d", i, e.U)
		}
	}
	if i := g.firstDuplicate(); i >= 0 {
		e := g.Edges[i]
		return fmt.Errorf("graph: duplicate edge %d (%d,%d)", i, e.U, e.V)
	}
	return nil
}

// firstDuplicate returns the index of the first edge that repeats an
// earlier one, or -1. Endpoints must be in range. It buckets edge ids by
// their smaller endpoint with a counting sort, so every bucket lists its
// edges in index order, then stamps each bucket's larger endpoints: the
// first stamp collision in a bucket is that bucket's first repeat. O(n + m)
// time and memory, no map.
func (g *EdgeList) firstDuplicate() int {
	if len(g.Edges) < 2 {
		return -1
	}
	start := make([]int32, g.N+1)
	for _, e := range g.Edges {
		start[min(e.U, e.V)+1]++
	}
	for v := int32(0); v < g.N; v++ {
		start[v+1] += start[v]
	}
	ids := make([]int32, len(g.Edges))
	next := append([]int32(nil), start[:g.N]...)
	for i, e := range g.Edges {
		lo := min(e.U, e.V)
		ids[next[lo]] = int32(i)
		next[lo]++
	}
	stamp := next // reused: lo+1 of the bucket that last listed v
	clear(stamp)
	first := -1
	for lo := int32(0); lo < g.N; lo++ {
		for _, i := range ids[start[lo]:start[lo+1]] {
			e := g.Edges[i]
			hi := max(e.U, e.V)
			if stamp[hi] == lo+1 {
				if first < 0 || int(i) < first {
					first = int(i)
				}
				break
			}
			stamp[hi] = lo + 1
		}
	}
	return first
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

// conversions counts ToCSR calls. A resident graph converts once, on the
// first call that needs its adjacency (Graph.CSR or Graph.Local).
var conversions = obs.Default().Counter("bicc_csr_conversions_total",
	"Edge-list to CSR conversions. A graph converts once, on the first engine run or query that needs its adjacency; a graph with a local view drops that CSR and converts again only for a query that reads adjacency in its own ids.")

// Graph is an immutable edge list together with its CSR, which the first
// consumer that needs adjacency builds and every later one shares: the
// engines, the sparse certificate and the analysis helpers all read it, so
// a resident graph pays the paper's representation conversion (§1) once
// instead of on every call. Above a size floor it may also hold a local
// view for the engines (Local), built once in the same way. Neither the
// edge list nor the CSR may be modified.
type Graph struct {
	*EdgeList
	mu  sync.Mutex
	csr atomic.Pointer[CSR]
	// local is Local's decision once made: the view, or the graph itself.
	local atomic.Pointer[Graph]
}

// Bytes returns what the graph holds: its edge list, its local view (edge
// list, CSR) once built, and its own CSR, which a graph without a view is
// charged for before its first solve builds it.
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

// Wrap returns el as a Graph whose CSR is not built yet. The caller must
// not modify el afterwards.
func Wrap(el *EdgeList) *Graph { return &Graph{EdgeList: el} }

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

// ToCSR converts an edge list to CSR using p workers: a parallel degree
// count (atomic-free, per-worker histograms), a prefix sum over offsets, and
// a parallel scatter. This is the conversion cost the paper charges to
// algorithms whose primitives disagree on representation.
func ToCSR(p int, g *EdgeList) *CSR {
	conversions.Inc()
	n := int(g.N)
	m := len(g.Edges)
	p = par.Procs(p)
	deg := make([]int32, n+1)
	if p == 1 || m < 4096 {
		for _, e := range g.Edges {
			deg[e.U+1]++
			deg[e.V+1]++
		}
	} else {
		// Per-worker histograms merged in parallel over vertices.
		hists := make([][]int32, p)
		par.ForWorker(p, m, func(w, lo, hi int) {
			h := make([]int32, n+1)
			for i := lo; i < hi; i++ {
				e := g.Edges[i]
				h[e.U+1]++
				h[e.V+1]++
			}
			hists[w] = h
		})
		par.For(p, n+1, func(lo, hi int) {
			for _, h := range hists {
				if h == nil {
					continue
				}
				for v := lo; v < hi; v++ {
					deg[v] += h[v]
				}
			}
		})
	}
	prefix.InclusiveSum32(p, deg)
	off := deg // deg is now the offsets array (deg[0] stayed 0 ⇒ inclusive == exclusive shifted)
	adj := make([]int32, 2*m)
	eid := make([]int32, 2*m)
	// Scatter with per-vertex cursors. Parallelizing the scatter needs
	// per-worker sub-offsets; with one undirected edge producing two arcs at
	// unrelated vertices, the simplest correct parallel scheme is a second
	// histogram pass computing per-worker starting cursors per vertex. For
	// the graph sizes here the sequential scatter is bandwidth-bound anyway,
	// so we parallelize only when it pays.
	if p == 1 || m < 1<<16 {
		cur := make([]int32, n)
		for i, e := range g.Edges {
			a := off[e.U] + cur[e.U]
			cur[e.U]++
			adj[a] = e.V
			eid[a] = int32(i)
			b := off[e.V] + cur[e.V]
			cur[e.V]++
			adj[b] = e.U
			eid[b] = int32(i)
		}
	} else {
		scatterParallel(p, g, off, adj, eid)
	}
	// After the inclusive scan over deg (deg[0]=0, deg[v+1]=degree(v)),
	// off[v] is the exclusive offset of vertex v and off[n]=2m, so off is
	// already the final offsets array of length n+1.
	return &CSR{N: g.N, Off: off, Adj: adj, EdgeID: eid}
}

// scatterParallel fills adj/eid with a two-pass scheme: pass 1 counts, per
// worker, how many arcs it will write at each vertex; a scan over workers
// gives each worker a private cursor range per vertex; pass 2 scatters
// without synchronization.
func scatterParallel(p int, g *EdgeList, off, adj, eid []int32) {
	n := int(g.N)
	m := len(g.Edges)
	counts := make([][]int32, p)
	par.ForWorker(p, m, func(w, lo, hi int) {
		c := make([]int32, n)
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			c[e.U]++
			c[e.V]++
		}
		counts[w] = c
	})
	// Convert per-worker counts to per-worker starting cursors.
	par.For(p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			cur := int32(0)
			for w := 0; w < p; w++ {
				if counts[w] == nil {
					continue
				}
				c := counts[w][v]
				counts[w][v] = cur
				cur += c
			}
		}
	})
	par.ForWorker(p, m, func(w, lo, hi int) {
		c := counts[w]
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			a := off[e.U] + c[e.U]
			c[e.U]++
			adj[a] = e.V
			eid[a] = int32(i)
			b := off[e.V] + c[e.V]
			c[e.V]++
			adj[b] = e.U
			eid[b] = int32(i)
		}
	})
}
