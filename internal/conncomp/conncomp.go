// Package conncomp implements connected components: the Shiloach–Vishkin
// graft-and-shortcut algorithm (step 6 of Tarjan–Vishkin, run on the
// auxiliary graph) adapted to SMPs with atomics standing in for arbitrary
// CRCW writes, plus sequential union-find and BFS baselines used as test
// oracles and for the sequential comparison runs.
package conncomp

import (
	"sync/atomic"

	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// Fault-injection point: once per graft/shortcut round, with the
// computation's canceler, so injected cancellations propagate for real.
var siteSV = faults.RegisterSite("conncomp.sv", true)

// ShiloachVishkin computes connected-component labels for a graph with n
// vertices and the given edges using p workers. The returned slice maps each
// vertex to the smallest vertex id reachable from it along graft chains —
// a canonical component representative (the root of its star).
//
// Each round grafts the root of the higher-labeled endpoint's tree onto the
// lower label and then fully shortcuts every vertex to its root. Labels are
// monotonically non-increasing per slot, so racing writers (any-writer-wins,
// the paper's arbitrary CRCW PRAM model) cannot livelock; atomics make the
// races well-defined under the Go memory model.
func ShiloachVishkin(p int, n int32, edges []graph.Edge) []int32 {
	return ShiloachVishkinC(nil, p, n, edges)
}

// ShiloachVishkinC is ShiloachVishkin with cooperative cancellation, polled
// between graft/shortcut rounds and inside the edge scan. When c trips the
// returned labels are incomplete — callers must check c.Err() and discard
// them.
func ShiloachVishkinC(c *par.Canceler, p int, n int32, edges []graph.Edge) []int32 {
	d := make([]int32, n)
	par.For(p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = int32(i)
		}
	})
	if len(edges) == 0 {
		return d
	}
	var changed atomic.Bool
	for round := 0; ; round++ {
		if c.Err() != nil {
			return d
		}
		faults.Inject(c, siteSV, 0, round)
		changed.Store(false)
		// Graft phase: hook the root of the larger label onto the smaller.
		par.ForDynamicC(c, p, len(edges), 0, func(lo, hi int) {
			localChanged := false
			for i := lo; i < hi; i++ {
				e := edges[i]
				du := atomic.LoadInt32(&d[e.U])
				dv := atomic.LoadInt32(&d[e.V])
				if du < dv {
					if atomic.CompareAndSwapInt32(&d[dv], dv, du) {
						localChanged = true
					}
				} else if dv < du {
					if atomic.CompareAndSwapInt32(&d[du], du, dv) {
						localChanged = true
					}
				}
			}
			if localChanged {
				changed.Store(true)
			}
		})
		if !changed.Load() {
			break
		}
		shortcut(p, d)
	}
	return d
}

// shortcut performs full pointer jumping: after it returns, d[v] == d[d[v]]
// for every v.
func shortcut(p int, d []int32) {
	par.For(p, len(d), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dv := atomic.LoadInt32(&d[v])
			for {
				ddv := atomic.LoadInt32(&d[dv])
				if ddv == dv {
					break
				}
				dv = ddv
			}
			atomic.StoreInt32(&d[v], dv)
		}
	})
}

// UnionFind computes component labels sequentially with weighted union and
// path compression; the label of a component is its smallest vertex id,
// matching ShiloachVishkin's canonical form.
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
