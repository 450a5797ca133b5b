// Package spantree implements the three spanning-tree algorithms the paper
// uses or compares against:
//
//   - SV: the unrooted spanning forest of the original Tarjan–Vishkin
//     algorithm (step 1 of TV). The paper derives it from Shiloach–Vishkin
//     by recording the edge responsible for every successful graft; here it
//     records the edge of every successful link of conncomp.Link, the
//     repository's one connectivity kernel. TV-SMP roots the forest
//     afterwards with the Euler-tour technique.
//   - WorkStealing: the Bader–Cong work-stealing graph-traversal spanning
//     tree [3,6] that computes a *rooted* spanning tree directly (parent per
//     vertex), merging the paper's Spanning-tree and Root-tree steps —
//     the key TV-opt optimization (§3.2).
//   - BFS: level-synchronous parallel breadth-first search producing a BFS
//     tree with levels, required by the TV-filter algorithm (§4) whose
//     correctness lemmas need T to be a BFS tree.
package spantree

import (
	"sync/atomic"

	"bicc/internal/conncomp"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// Fault-injection points, all with the computation's canceler: once per SV
// call, per expansion in the work-stealing traversal, and per level in BFS.
var (
	siteSV    = faults.RegisterSite("spantree.sv", true)
	siteSteal = faults.RegisterSite("spantree.steal", true)
	siteBFS   = faults.RegisterSite("spantree.bfs.level", true)
)

// Forest is an unrooted spanning forest given as a set of edge indices into
// the originating edge list.
type Forest struct {
	N         int32
	TreeEdges []int32 // indices into the edge list; len = N - #components
	Labels    []int32 // connected-component label per vertex (conncomp.Link's;
	// the label is the minimum vertex id of the component, so
	// Labels[v] == v identifies component representatives)
}

// RootedForest is a rooted spanning forest: Parent[v] is v's parent, or v
// itself when v is a root; ParentEdge[v] is the edge index connecting v to
// its parent, or -1 for roots. Level is the BFS depth when produced by BFS,
// nil otherwise.
type RootedForest struct {
	N          int32
	Parent     []int32
	ParentEdge []int32
	Roots      []int32
	Level      []int32
}

// IsRoot reports whether v is a root of the forest.
func (f *RootedForest) IsRoot(v int32) bool { return f.Parent[v] == v }

// SV computes an unrooted spanning forest with conncomp.Link: every
// successful link merges two distinct trees, and the edge that caused it is
// a forest edge. Exactly n - #components links succeed.
func SV(p int, n int32, edges []graph.Edge) *Forest {
	return SVC(nil, p, n, edges, nil)
}

// SVC is SV with cooperative cancellation, polled inside the edge scan,
// over the edges mask keeps (nil keeps every edge); tree edge ids still
// index edges. When c trips the returned forest is incomplete — callers
// must check c.Err() and discard it.
func SVC(c *par.Canceler, p int, n int32, edges []graph.Edge, mask []bool) *Forest {
	faults.Inject(c, siteSV, 0, 0)
	hook := make([]int32, n) // hook[r] = edge id whose link removed root r
	d := conncomp.Link(c, p, n, edges, mask, hook)
	tree := make([]int32, 0, n)
	for v := int32(0); v < n; v++ {
		if hook[v] != -1 {
			tree = append(tree, hook[v])
		}
	}
	return &Forest{N: n, TreeEdges: tree, Labels: d}
}

// WorkStealing computes a rooted spanning forest by parallel graph
// traversal: workers expand vertices from private stacks, claiming children
// with a CAS on the parent array, and a worker whose stack runs dry waits on
// one shared pool that busy workers feed with the older half of their
// stacks. Discovery order is nondeterministic, but any claimed parent
// relation is a valid spanning-forest edge.
func WorkStealing(p int, c *graph.CSR) *RootedForest {
	return WorkStealingC(nil, p, c)
}

// WorkStealingC is WorkStealing with cooperative cancellation: traversal
// workers poll cn between expansions and while idle. When cn trips the
// returned forest is incomplete — callers must check cn.Err() and discard
// it.
//
// One team of p workers traverses the whole forest. The roots are the
// unvisited vertices in increasing order, and the pool hands out the next
// one only when every worker waits with the pool empty, so the previous
// component is finished and no component gets two trees.
func WorkStealingC(cn *par.Canceler, p int, c *graph.CSR) *RootedForest {
	n := c.N
	p = par.Procs(p)
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	par.For(p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parent[i] = -1
			parentEdge[i] = -1
		}
	})
	var roots []int32
	next := int32(0)
	seed := func() (int32, bool) {
		for ; next < n; next++ {
			if atomic.LoadInt32(&parent[next]) != -1 {
				continue
			}
			s := next
			atomic.StoreInt32(&parent[s], s)
			roots = append(roots, s)
			if c.Off[s] != c.Off[s+1] {
				next++
				return s, true
			}
		}
		return 0, false
	}
	if s, ok := seed(); ok {
		traverse(cn, p, c, parent, parentEdge, s, seed)
	}
	return &RootedForest{N: n, Parent: parent, ParentEdge: parentEdge, Roots: roots}
}

// traverse runs the work-stealing expansion from root s, and from every
// root seed hands out once the team runs out of work. The expansion path
// takes no lock and writes no shared counter: a worker touches the pool
// only when another waits (after an expansion that leaves it at least two
// items) or when its own stack runs dry.
func traverse(cn *par.Canceler, p int, c *graph.CSR, parent, parentEdge []int32, s int32, seed func() (int32, bool)) {
	// Idle workers wait in the pool for work the others may still give, so
	// a panicking worker must trip a cancellation token or its siblings
	// would wait forever. Without a caller token, use a private one and
	// re-raise the contained panic afterwards.
	localToken := cn == nil
	if localToken {
		cn = &par.Canceler{}
	}
	pool := par.NewPool(p, seed)
	pe := par.RunC(cn, p, func(w int) {
		stack := make([]int32, 0, 256)
		if w == 0 {
			stack = append(stack, s)
		}
		for iter := 0; ; {
			for len(stack) > 0 {
				if cn.Err() != nil {
					return
				}
				faults.Inject(cn, siteSteal, w, iter)
				iter++
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for i, end := c.Off[v], c.Off[v+1]; i < end; i++ {
					u := c.Adj[i]
					if atomic.LoadInt32(&parent[u]) == -1 &&
						atomic.CompareAndSwapInt32(&parent[u], -1, v) {
						parentEdge[u] = c.EdgeID[i]
						stack = append(stack, u)
					}
				}
				if len(stack) >= 2 && pool.Hungry() {
					k := len(stack) / 2
					pool.Give(stack[:k])
					stack = stack[:copy(stack, stack[k:])]
				}
			}
			var ok bool
			if stack, ok = pool.Wait(cn, stack); !ok {
				return
			}
		}
	})
	if localToken && pe != nil {
		panic(pe)
	}
}

// BFS computes a rooted spanning forest by level-synchronous parallel
// breadth-first search over all components, with Level recording BFS depth.
// The tree rooted at each root is a genuine BFS tree: Level[child] =
// Level[parent] + 1, which is the property the TV-filter lemmas require.
func BFS(p int, c *graph.CSR) *RootedForest {
	return BFSC(nil, p, c)
}

// BFSC is BFS with cooperative cancellation, polled once per BFS level.
// When cn trips the returned forest is incomplete — callers must check
// cn.Err() and discard it.
func BFSC(cn *par.Canceler, p int, c *graph.CSR) *RootedForest {
	n := c.N
	p = par.Procs(p)
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	level := make([]int32, n)
	par.For(p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parent[i] = -1
			parentEdge[i] = -1
			level[i] = -1
		}
	})
	var roots []int32
	frontier := make([]int32, 0, n)
	nextBufs := make([][]int32, p)
	for s := int32(0); s < n; s++ {
		if parent[s] != -1 {
			continue
		}
		parent[s] = s
		level[s] = 0
		roots = append(roots, s)
		frontier = append(frontier[:0], s)
		depth := int32(0)
		for len(frontier) > 0 {
			if cn.Err() != nil {
				return &RootedForest{N: n, Parent: parent, ParentEdge: parentEdge, Roots: roots, Level: level}
			}
			faults.Inject(cn, siteBFS, 0, int(depth))
			depth++
			par.ForWorker(p, len(frontier), func(w, lo, hi int) {
				buf := nextBufs[w][:0]
				for i := lo; i < hi; i++ {
					v := frontier[i]
					off, end := c.Off[v], c.Off[v+1]
					for j := off; j < end; j++ {
						u := c.Adj[j]
						if atomic.LoadInt32(&parent[u]) == -1 &&
							atomic.CompareAndSwapInt32(&parent[u], -1, v) {
							parentEdge[u] = c.EdgeID[j]
							level[u] = depth
							buf = append(buf, u)
						}
					}
				}
				nextBufs[w] = buf
			})
			frontier = frontier[:0]
			for w := range nextBufs {
				frontier = append(frontier, nextBufs[w]...)
				nextBufs[w] = nextBufs[w][:0]
			}
		}
	}
	return &RootedForest{N: n, Parent: parent, ParentEdge: parentEdge, Roots: roots, Level: level}
}

// TreeEdgeMark returns a boolean mask over the m edges of the originating
// edge list marking the forest's tree edges.
func (f *RootedForest) TreeEdgeMark(p, m int) []bool {
	mark := make([]bool, m)
	par.For(p, int(f.N), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if e := f.ParentEdge[v]; e != -1 {
				mark[e] = true
			}
		}
	})
	return mark
}

// Mark returns a boolean mask over m edges marking this unrooted forest's
// tree edges.
func (f *Forest) Mark(p, m int) []bool {
	mark := make([]bool, m)
	par.For(p, len(f.TreeEdges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mark[f.TreeEdges[i]] = true
		}
	})
	return mark
}
