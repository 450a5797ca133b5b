package treecomp

import (
	"math/bits"
	"sync/atomic"

	"bicc/internal/graph"
	"bicc/internal/par"
)

// Step 4 of TV (low-high) for every engine that holds a preorder-numbered
// spanning forest. low(v) and high(v) are the smallest and largest preorder
// numbers of any vertex in v's subtree or joined to it by a nontree edge.
// The computation has two halves:
//
//   - Seeds, indexed by preorder: seed[pre(v)] folds pre(v) with the
//     preorder of v's nontree neighbours. LowHigh seeds from an edge list,
//     LowHighCSR from each vertex's own arcs.
//   - One subtree fold: v's subtree is the preorder interval
//     [pre(v), pre(v)+size(v)), so low(v)/high(v) is a range query over the
//     seeds, answered in O(1) by a pairRMQ.

// seed is one preorder slot's (low, high) pair. Both folds read the same
// cache line.
type seed struct{ lo, hi int32 }

func (a seed) fold(b seed) seed {
	return seed{min(a.lo, b.lo), max(a.hi, b.hi)}
}

// LowHigh computes low and high for every vertex of td, seeding from the
// nontree edges of edges (isTree marks the spanning forest's edges).
//
// Every seed starts at its own preorder, so for a nontree edge whose
// endpoints have preorders a < b only seed[b].lo (down to a) and
// seed[a].hi (up to b) can move: two guarded CAS loops per edge, any-writer
// CRCW emulation.
func LowHigh(p int, td *TreeData, edges []graph.Edge, isTree []bool) (low, high []int32) {
	n := int(td.N)
	s := make([]seed, n)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = seed{int32(i), int32(i)}
		}
	})
	par.ForDynamic(p, len(edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if isTree[i] {
				continue
			}
			x, y := td.Pre[edges[i].U], td.Pre[edges[i].V]
			a, b := min(x, y), max(x, y)
			lowerTo(&s[b].lo, a)
			raiseTo(&s[a].hi, b)
		}
	})
	return foldSubtrees(p, td.Pre, td.Size, s)
}

// LowHighCSR computes the same low and high as LowHigh from the graph's CSR:
// each vertex v folds pre(w) over its arcs to every w ≠ parent[v] and writes
// seed[pre[v]] once, with no atomics. Arcs to v's children do no harm, since
// a child's preorder lies inside v's interval. pre, size and parent describe
// a spanning forest of c's graph (roots are their own parents), and the graph
// must be simple: skipping the parent by neighbour id is exact only when one
// edge joins v to it.
func LowHighCSR(p int, pre, size, parent []int32, c *graph.CSR) (low, high []int32) {
	s := make([]seed, c.N)
	par.ForDynamic(p, int(c.N), 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			pa, pv := parent[v], pre[v]
			sd := seed{pv, pv}
			for _, w := range c.Adj[c.Off[v]:c.Off[v+1]] {
				x := pre[w]
				if w == pa {
					x = pv // a no-op, without a branch to mispredict
				}
				sd = sd.fold(seed{x, x})
			}
			s[pv] = sd
		}
	})
	return foldSubtrees(p, pre, size, s)
}

// lowerTo lowers *addr to v; the plain load keeps edges that cannot improve
// the seed out of the CAS loop.
func lowerTo(addr *int32, v int32) {
	for cur := atomic.LoadInt32(addr); v < cur; cur = atomic.LoadInt32(addr) {
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}

// raiseTo raises *addr to v, guarded like lowerTo.
func raiseTo(addr *int32, v int32) {
	for cur := atomic.LoadInt32(addr); v > cur; cur = atomic.LoadInt32(addr) {
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}

// foldSubtrees answers every vertex's subtree interval over the
// preorder-indexed seeds and returns low and high by vertex id.
func foldSubtrees(p int, pre, size []int32, s []seed) (low, high []int32) {
	r := newPairRMQ(p, s)
	n := len(pre)
	low = make([]int32, n)
	high = make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			a := pre[v]
			f := r.query(a, a+size[v]-1)
			low[v], high[v] = f.lo, f.hi
		}
	})
	return low, high
}

// foldBlock is the block length of pairRMQ. A range inside one block is
// scanned, so it bounds the longest scan.
const foldBlock = 32

// pairRMQ answers range folds (min of lo, max of hi) over a static seed
// array in O(1). The array is cut into blocks of foldBlock entries; each
// entry stores the fold from its block's start (prefix) and to its block's
// end (suffix), and a sparse table over the block folds covers the whole
// blocks between. Memory is 3n pairs plus (n/B) log(n/B) for the table.
type pairRMQ struct {
	vals, prefix, suffix []seed
	table                [][]seed // table[k][j] folds blocks j .. j+2^k-1
}

func newPairRMQ(p int, vals []seed) *pairRMQ {
	n := len(vals)
	nb := (n + foldBlock - 1) / foldBlock
	r := &pairRMQ{vals: vals, prefix: make([]seed, n), suffix: make([]seed, n)}
	if nb == 0 {
		return r
	}
	level0 := make([]seed, nb)
	par.For(p, nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * foldBlock
			end := min(start+foldBlock, n)
			acc := vals[start]
			r.prefix[start] = acc
			for i := start + 1; i < end; i++ {
				acc = acc.fold(vals[i])
				r.prefix[i] = acc
			}
			level0[b] = acc
			acc = vals[end-1]
			r.suffix[end-1] = acc
			for i := end - 2; i >= start; i-- {
				acc = acc.fold(vals[i])
				r.suffix[i] = acc
			}
		}
	})
	r.table = append(r.table, level0)
	for width := 1; 2*width <= nb; width *= 2 {
		prev := r.table[len(r.table)-1]
		next := make([]seed, nb-2*width+1)
		par.For(p, len(next), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				next[j] = prev[j].fold(prev[j+width])
			}
		})
		r.table = append(r.table, next)
	}
	return r
}

// query folds vals over the inclusive range [a, b]. No query scans a partial
// block next to whole ones: those are read from suffix, prefix and the table.
func (r *pairRMQ) query(a, b int32) seed {
	ba, bb := uint32(a)/foldBlock, uint32(b)/foldBlock
	if ba == bb {
		acc := r.vals[a]
		for i := a + 1; i <= b; i++ {
			acc = acc.fold(r.vals[i])
		}
		return acc
	}
	acc := r.suffix[a].fold(r.prefix[b])
	if gap := bb - ba - 1; gap > 0 {
		k := bits.Len32(gap) - 1
		t := r.table[k]
		acc = acc.fold(t[ba+1]).fold(t[bb-(1<<k)])
	}
	return acc
}
