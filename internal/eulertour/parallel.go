package eulertour

import (
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/spantree"
)

// DFSOrderParallel produces the ArcSeq of a rooted forest's DFS-order Euler
// tour — arcs laid out in traversal order — without walking the tree
// sequentially. It is the construction of Cong & Bader's cited Euler-tour
// paper [6]: with a rooted spanning tree in hand, every arc's tour position
// is a closed-form function of subtree sizes, so the tour can be *computed*
// instead of traversed:
//
//   - subtree sizes come from a bottom-up level sweep (O(height) rounds,
//     all level-parallel);
//   - each child's subtree occupies a contiguous arc interval inside its
//     parent's, offset by the arc counts (2·size) of earlier siblings, so
//     one top-down pass over the children lists assigns every vertex its
//     interval start;
//   - with intervals known, every vertex writes its own advance and
//     retreat arcs independently, in parallel.
//
// Children are ordered by vertex id under each parent, the sibling order of
// the numbering kernel (treecomp.Order, then LevelOrder.Number), so
// treecomp.Compute over this tour equals that kernel's numbering field for
// field — asserted by tests.
func DFSOrderParallel(p int, edges []graph.Edge, f *spantree.RootedForest) *ArcSeq {
	n := int(f.N)
	p = par.Procs(p)
	// Children CSR, siblings by vertex id.
	childOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if !f.IsRoot(int32(v)) {
			childOff[f.Parent[v]+1]++
		}
	}
	for v := 0; v < n; v++ {
		childOff[v+1] += childOff[v]
	}
	child := make([]int32, childOff[n])
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		if !f.IsRoot(int32(v)) {
			pv := f.Parent[v]
			child[childOff[pv]+cur[pv]] = int32(v)
			cur[pv]++
		}
	}
	// Depth per vertex and level buckets for the two sweeps.
	depth := make([]int32, n)
	maxDepth := int32(0)
	order := bfsOrder(f, childOff, child) // parents before children
	for _, v := range order {
		if f.IsRoot(v) {
			depth[v] = 0
			continue
		}
		depth[v] = depth[f.Parent[v]] + 1
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	levelOff := make([]int32, maxDepth+2)
	for v := 0; v < n; v++ {
		levelOff[depth[v]+1]++
	}
	for d := int32(0); d <= maxDepth; d++ {
		levelOff[d+1] += levelOff[d]
	}
	byLevel := make([]int32, n)
	lcur := make([]int32, maxDepth+1)
	for _, v := range order {
		d := depth[v]
		byLevel[levelOff[d]+lcur[d]] = v
		lcur[d]++
	}
	// Bottom-up: subtree sizes, one parallel round per level.
	size := make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			size[v] = 1
		}
	})
	// Pull-based per round: the vertices at level d-1 sum their children at
	// level d. All of a vertex's children share its level+1, and levels run
	// deepest-first, so every pulled size is already final; leaves keep
	// their initial size of 1 whichever round names them as parents.
	for d := maxDepth; d >= 1; d-- {
		parents := byLevel[levelOff[d-1]:levelOff[d]]
		par.ForDynamic(p, len(parents), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := parents[i]
				acc := int32(1)
				for _, c := range child[childOff[v]:childOff[v+1]] {
					acc += size[c]
				}
				size[v] = acc
			}
		})
	}
	// Arc interval starts, top-down: arcStart(root) = component base;
	// child c_i starts right after its advance arc, which sits after the
	// arc blocks of earlier siblings.
	var multiRoots, singles []int32
	for _, r := range f.Roots {
		if childOff[r] == childOff[r+1] {
			singles = append(singles, r)
			continue
		}
		multiRoots = append(multiRoots, r)
	}
	arcStart := make([]int32, n)
	base := int32(0)
	compFirst := make([]int32, len(multiRoots))
	for k, r := range multiRoots {
		compFirst[k] = base
		arcStart[r] = base
		base += 2 * (size[r] - 1)
	}
	totalArcs := int(base)
	for d := int32(0); d < maxDepth; d++ {
		parents := byLevel[levelOff[d]:levelOff[d+1]]
		par.ForDynamic(p, len(parents), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := parents[i]
				pos := arcStart[v]
				for _, c := range child[childOff[v]:childOff[v+1]] {
					arcStart[c] = pos + 1
					pos += 2 * size[c]
				}
			}
		})
	}
	// Emit arcs: vertex v's advance arc (parent→v) at arcStart[v]-1, and
	// its retreat arc (v→parent) at arcStart[v] + 2(size[v]-1).
	seq := &ArcSeq{
		N:         f.N,
		Src:       make([]int32, totalArcs),
		Dst:       make([]int32, totalArcs),
		EdgeID:    make([]int32, totalArcs),
		Advance:   make([]bool, totalArcs),
		CompFirst: compFirst,
		Roots:     append(multiRoots, singles...),
	}
	par.For(p, n, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			if f.IsRoot(v) {
				continue
			}
			pv := f.Parent[v]
			adv := arcStart[v] - 1
			ret := arcStart[v] + 2*(size[v]-1)
			seq.Src[adv], seq.Dst[adv] = pv, v
			seq.EdgeID[adv] = f.ParentEdge[v]
			seq.Advance[adv] = true
			seq.Src[ret], seq.Dst[ret] = v, pv
			seq.EdgeID[ret] = f.ParentEdge[v]
			seq.Advance[ret] = false
		}
	})
	return seq
}

// bfsOrder returns the forest's vertices with every parent before its
// children (roots first, then level by level).
func bfsOrder(f *spantree.RootedForest, childOff, child []int32) []int32 {
	n := int(f.N)
	order := make([]int32, 0, n)
	for v := int32(0); v < f.N; v++ {
		if f.IsRoot(v) {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		order = append(order, child[childOff[v]:childOff[v+1]]...)
	}
	if len(order) != n {
		// Defensive: a malformed forest would loop forever downstream;
		// surface it here instead.
		panic("eulertour: forest does not cover all vertices")
	}
	return order
}
