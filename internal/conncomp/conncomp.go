// Package conncomp implements connected components: one parallel kernel,
// Link, a single pass of concurrent union-find that serves both of
// Tarjan–Vishkin's connectivity steps (the spanning forest of step 1, via
// spantree.SV, and the components of the auxiliary graph in step 6) and
// FAST-BCC's skeleton, plus sequential union-find and BFS baselines used as
// test oracles and for the sequential comparison runs.
package conncomp

import (
	"sync/atomic"

	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// Fault-injection point: once per ShiloachVishkinC call, with the
// computation's canceler, so injected cancellations propagate for real.
// spantree.SVC has its own site, so a rule can target TV's step 1 and step 6
// apart, and no call fires two.
var siteSV = faults.RegisterSite("conncomp.sv", true)

// ShiloachVishkin computes connected-component labels for a graph with n
// vertices and the given edges using p workers. The name is the paper's
// (TV step 6); what runs is Link: each vertex is labeled with the smallest
// vertex id of its component.
func ShiloachVishkin(p int, n int32, edges []graph.Edge) []int32 {
	return ShiloachVishkinC(nil, p, n, edges)
}

// ShiloachVishkinC is ShiloachVishkin with cooperative cancellation. When c
// trips the returned labels are incomplete — callers must check c.Err() and
// discard them.
func ShiloachVishkinC(c *par.Canceler, p int, n int32, edges []graph.Edge) []int32 {
	faults.Inject(c, siteSV, 0, 0)
	return Link(c, p, n, edges, nil)
}

// Link computes connected-component labels with one pass of concurrent
// union-find over the edges: for each edge, find both roots (halving the
// path on the way), and if they differ, link the larger root under the
// smaller with a CAS, retrying the edge when the CAS loses. Every parent
// pointer goes to a smaller id, so each root is the minimum id of its
// component, and a last pass points every vertex at its root: the labels are
// min-id canonical, exactly UnionFind's.
//
// A CAS succeeds only on a root and never links a tree into itself, so
// exactly n − #components links succeed, each merging two trees. When hook
// is non-nil (length n) it is reset to -1 and the winner of each link writes
// the edge id into hook[r], r being the root it linked: the recorded edges
// form a spanning forest.
//
// Edges may repeat, run in both orientations or be self-loops. c is polled
// per chunk of edges; when it trips, labels and hook are incomplete and
// callers must check c.Err() and discard them.
func Link(c *par.Canceler, p int, n int32, edges []graph.Edge, hook []int32) []int32 {
	d := make([]int32, n)
	par.For(p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = int32(i)
		}
		if hook != nil {
			for i := lo; i < hi; i++ {
				hook[i] = -1
			}
		}
	})
	par.ForDynamicC(c, p, len(edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := edges[i].U, edges[i].V
			for {
				u, v = find(d, u), find(d, v)
				if u == v {
					break
				}
				if u < v {
					u, v = v, u
				}
				if atomic.CompareAndSwapInt32(&d[u], u, v) {
					if hook != nil {
						hook[u] = int32(i) // u stops being a root once, so one writer
					}
					break
				}
			}
		}
	})
	par.For(p, int(n), func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			if r := find(d, v); r != atomic.LoadInt32(&d[v]) {
				atomic.StoreInt32(&d[v], r)
			}
		}
	})
	return d
}

// find returns the root of x's tree, pointing each vertex on the way at its
// grandparent (path halving). A lost CAS only means another worker moved
// the pointer closer to the root first.
func find(d []int32, x int32) int32 {
	for {
		px := atomic.LoadInt32(&d[x])
		if px == x {
			return x
		}
		gx := atomic.LoadInt32(&d[px])
		if gx != px {
			atomic.CompareAndSwapInt32(&d[x], px, gx)
		}
		x = gx
	}
}

// UnionFind computes component labels sequentially with weighted union and
// path compression; the label of a component is its smallest vertex id,
// matching Link's canonical form.
func UnionFind(n int32, edges []graph.Edge) []int32 {
	parent := make([]int32, n)
	size := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		root := v
		for parent[root] != root {
			root = parent[root]
		}
		for parent[v] != root {
			parent[v], v = root, parent[v]
		}
		return root
	}
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		if size[ru] < size[rv] {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		size[ru] += size[rv]
	}
	// Canonicalize: label every vertex with the minimum id in its component.
	minID := make([]int32, n)
	for i := range minID {
		minID[i] = int32(n)
	}
	for v := int32(0); v < n; v++ {
		r := find(v)
		if v < minID[r] {
			minID[r] = v
		}
	}
	labels := make([]int32, n)
	for v := int32(0); v < n; v++ {
		labels[v] = minID[find(v)]
	}
	return labels
}

// BFS computes component labels with a sequential breadth-first search over
// a CSR; each component is labeled by its smallest vertex id.
func BFS(c *graph.CSR) []int32 {
	labels := make([]int32, c.N)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, c.N)
	for s := int32(0); s < c.N; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range c.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = s
					queue = append(queue, w)
				}
			}
		}
	}
	return labels
}

// Count returns the number of distinct labels.
func Count(labels []int32) int {
	seen := make(map[int32]struct{}, 16)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// Normalize renumbers labels in place to the dense range [0, k) in order of
// first appearance and returns k. Useful for comparing partitions produced
// by different algorithms. The remap is an array over [min, max] of the
// labels, so they should be ids bounded by the input size, as vertex, edge
// and block ids are.
func Normalize(labels []int32) int {
	if len(labels) == 0 {
		return 0
	}
	lo, hi := labels[0], labels[0]
	for _, l := range labels {
		lo, hi = min(lo, l), max(hi, l)
	}
	remap := make([]int32, int(hi)-int(lo)+1) // new label + 1; 0 = unseen
	k := int32(0)
	for i, l := range labels {
		r := &remap[int(l)-int(lo)]
		if *r == 0 {
			k++
			*r = k
		}
		labels[i] = *r - 1
	}
	return int(k)
}

// SamePartition reports whether two labelings induce the same partition of
// [0, n).
func SamePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}
