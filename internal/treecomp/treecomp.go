// Package treecomp implements the tree computations of Tarjan–Vishkin
// steps 3 and 4: rooting the tree (parent per vertex), preorder numbering,
// subtree sizes, and the low/high values.
//
// Step 3 has two inputs. Compute takes an eulertour.ArcSeq — arcs in tour
// order, from list ranking TV-SMP's linked tour — and reduces everything to
// parallel prefix sums, the paper's §3.2 claim: "The algorithm produces an
// Euler-tour where prefix sum can be used for tree computations instead of
// the more expensive list ranking." Number takes a rooted forest (TV-opt's
// traversal, the BFS of TV-filter and FAST-BCC) and gives the same
// numbering from two passes over its level order, with no tour at all.
//
// Preorder numbers are global across the forest: each component occupies a
// contiguous block (its root first), and every vertex's subtree occupies the
// contiguous interval [Pre[v], Pre[v]+Size[v]). The low/high kernel reads
// only those intervals.
package treecomp

import (
	"fmt"
	"sync/atomic"

	"bicc/internal/eulertour"
	"bicc/internal/par"
	"bicc/internal/prefix"
)

// TreeData is the rooted, numbered spanning forest.
type TreeData struct {
	N      int32
	Parent []int32 // parent per vertex; roots point at themselves
	Pre    []int32 // preorder number, subtree-contiguous, global over the forest
	Size   []int32 // subtree size
	Roots  []int32 // multi-vertex component roots, then isolated vertices
}

// IsRoot reports whether v is a component root.
func (td *TreeData) IsRoot(v int32) bool { return td.Parent[v] == v }

// IsAncestor reports whether a is an ancestor of (or equal to) d, using the
// preorder-interval containment test.
func (td *TreeData) IsAncestor(a, d int32) bool {
	return td.Pre[a] <= td.Pre[d] && td.Pre[d] < td.Pre[a]+td.Size[a]
}

// Related reports whether u and v have an ancestral relationship.
func (td *TreeData) Related(u, v int32) bool {
	return td.IsAncestor(u, v) || td.IsAncestor(v, u)
}

// Compute derives parents, preorder numbers and subtree sizes from an
// ordered Euler tour with p workers.
func Compute(p int, seq *eulertour.ArcSeq) (*TreeData, error) {
	n := seq.N
	na := seq.NumArcs()
	td := &TreeData{
		N:      n,
		Parent: make([]int32, n),
		Pre:    make([]int32, n),
		Size:   make([]int32, n),
		Roots:  append([]int32(nil), seq.Roots...),
	}
	par.For(p, int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			td.Parent[v] = -1
			td.Pre[v] = -1
		}
	})
	// Weights: advance arcs count 1 (they discover Dst); the first arc of
	// each component counts one extra for that component's root. The
	// inclusive prefix sum P then yields Pre[Dst(a)] = P[a]-1 for advance
	// arcs and Pre[root_k] = P[CompFirst[k]]-2.
	w := make([]int32, na)
	par.For(p, na, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if seq.Advance[i] {
				w[i] = 1
			}
		}
	})
	for _, cf := range seq.CompFirst {
		w[cf]++ // the component-head arc is always an advance arc
	}
	prefix.InclusiveSum32(p, w)
	// Parents, preorder, and arc positions per vertex.
	advPos := make([]int32, n)
	retPos := make([]int32, n)
	par.For(p, na, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if seq.Advance[i] {
				v := seq.Dst[i]
				td.Parent[v] = seq.Src[i]
				td.Pre[v] = w[i] - 1
				advPos[v] = int32(i)
			} else {
				retPos[seq.Src[i]] = int32(i)
			}
		}
	})
	// Roots: self-parent, preorder from their head arc, size from the span
	// of their component's tour.
	nMulti := len(seq.CompFirst)
	for k, r := range td.Roots {
		if td.Parent[r] != -1 {
			return nil, fmt.Errorf("treecomp: root %d is entered by an advance arc", r)
		}
		td.Parent[r] = r
		if k < nMulti {
			cf := seq.CompFirst[k]
			td.Pre[r] = w[cf] - 2
			compEnd := int32(na)
			if k+1 < nMulti {
				compEnd = seq.CompFirst[k+1]
			}
			td.Size[r] = (compEnd-cf)/2 + 1
			advPos[r] = cf
			retPos[r] = compEnd - 1
		} else {
			// Singleton components are numbered after all toured vertices.
			base := int32(0)
			if na > 0 {
				base = w[na-1]
			}
			td.Pre[r] = base + int32(k-nMulti)
			td.Size[r] = 1
		}
	}
	// Non-root subtree sizes from the arc span: the arcs strictly between
	// the advance into v and the retreat out of v, inclusive, number
	// 2*Size[v], i.e. Size[v] = (retPos - advPos + 1) / 2.
	par.For(p, int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if td.Parent[v] == -1 {
				continue // validated below
			}
			if !td.IsRoot(int32(v)) {
				td.Size[v] = (retPos[v] - advPos[v] + 1) / 2
			}
		}
	})
	// Validate coverage.
	var bad atomic.Int32
	bad.Store(-1)
	par.For(p, int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if td.Parent[v] == -1 || td.Pre[v] < 0 || td.Pre[v] >= n {
				bad.Store(int32(v))
				return
			}
		}
	})
	if b := bad.Load(); b != -1 {
		return nil, fmt.Errorf("treecomp: vertex %d not covered by the tour (forest/roots mismatch)", b)
	}
	return td, nil
}
