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
//   - BFS: level-synchronous, direction-optimizing parallel breadth-first
//     search producing a BFS tree with levels, required by the TV-filter
//     algorithm (§4), whose correctness lemmas need T to be a BFS tree, and
//     by FAST-BCC's skeleton. Heavy frontiers take bottom-up steps, tiny
//     ones run on the calling goroutine (see BFSC).
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
// The roots are the components' least vertex ids.
func BFS(p int, c *graph.CSR) *RootedForest {
	return BFSC(nil, p, c)
}

// BFSC is BFS with cooperative cancellation, polled once per BFS level.
// When cn trips the returned forest is incomplete — callers must check
// cn.Err() and discard it.
//
// Each level is one step of a direction-optimizing BFS (Beamer, Asanović
// and Patterson, SC 2012). A top-down step scans the frontier's arcs and
// claims each unvisited endpoint with a CAS on its level. A bottom-up step
// scans the unvisited vertices in static blocks of [0, n) instead, and each
// takes the first arc to a vertex one level up, so the tree stays a BFS
// tree. A step runs bottom-up when the frontier holds more than
// n/bottomUpBeta vertices and more than 1/bottomUpAlpha as many as are
// still unvisited; the switch reads no degrees, only counts the loop keeps.
// A bottom-up step also scans the unvisited vertices of every later
// component, but only a component of more than n/bottomUpBeta vertices
// takes one, so at most bottomUpBeta components per call do. A step whose
// range (the frontier top-down, all n vertices bottom-up) is below
// inlineFloor runs on the calling goroutine, with no spawn and no closure;
// every other step is one par.ForWorker.
func BFSC(cn *par.Canceler, p int, c *graph.CSR) *RootedForest {
	return bfs(cn, p, c, fittedSteps)
}

// The step rule's constants, fitted from interleaved timed rows of BFSC
// alone at p = 1 and 2 on a 2-vCPU x86-64 host (EXPERIMENTS.md,
// "Direction-optimizing BFS"), as the planner's cost table is. bottomUpAlpha
// and bottomUpBeta were fitted on G(n, m) at five densities, where (4, 24)
// came within 3% of each row's best on average; inlineFloor on high-diameter
// inputs with local ids (the 512×512 torus's local view, a row-major mesh)
// and without (the torus with permuted ids). Inline levels gain where
// reads are local and lose where they miss the cache: from 512 up the
// permuted torus slows, and 256 beat 128 on the mesh and the permuted
// torus and stayed within 128's quartiles on the local view.
const (
	// bottomUpAlpha: a bottom-up step needs a frontier larger than
	// 1/bottomUpAlpha of the unvisited vertices.
	bottomUpAlpha = 4
	// bottomUpBeta: a bottom-up step needs a frontier larger than
	// n/bottomUpBeta, which also bounds the components that take one.
	bottomUpBeta = 24
	// inlineFloor is the least step range that is split across workers.
	inlineFloor = 256
)

// stepRule picks the kind of each BFS step. BFSC uses the fitted switch;
// the tests force one kind to check both against a queue BFS.
type stepRule uint8

const (
	fittedSteps stepRule = iota
	topDownSteps
	bottomUpSteps
)

// bottomUp reports whether a step from a frontier of f vertices, with u of
// the n vertices still unvisited, runs bottom-up.
func (r stepRule) bottomUp(f, u, n int) bool {
	switch r {
	case topDownSteps:
		return false
	case bottomUpSteps:
		return true
	}
	return f > n/bottomUpBeta && f*bottomUpAlpha > u
}

// bfsState is one BFS call: the forest being built and the current step.
// A vertex is unvisited while its level is -1.
type bfsState struct {
	c                         *graph.CSR
	parent, parentEdge, level []int32
	frontier                  []int32   // the vertices at level depth-1
	next                      [][]int32 // per worker, the vertices found at depth
	depth                     int32
}

// topDown expands frontier[lo:hi]: an arc to an unvisited vertex claims it
// with a CAS on its level, so each vertex gets exactly one parent.
func (s *bfsState) topDown(w, lo, hi int) {
	c, level, d := s.c, s.level, s.depth
	buf := s.next[w]
	for _, v := range s.frontier[lo:hi] {
		for j, end := c.Off[v], c.Off[v+1]; j < end; j++ {
			u := c.Adj[j]
			if atomic.LoadInt32(&level[u]) == -1 &&
				atomic.CompareAndSwapInt32(&level[u], -1, d) {
				s.parent[u] = v
				s.parentEdge[u] = c.EdgeID[j]
				buf = append(buf, u)
			}
		}
	}
	s.next[w] = buf
}

// bottomUp visits each unvisited vertex in [lo, hi) whose arcs reach the
// frontier, through its first such arc. Only this worker writes the levels
// of [lo, hi), but its neighbours' levels may sit in another worker's
// block, so those are read, and its own written, atomically.
func (s *bfsState) bottomUp(w, lo, hi int) {
	c, level, d := s.c, s.level, s.depth
	buf := s.next[w]
	for v := int32(lo); v < int32(hi); v++ {
		if level[v] != -1 {
			continue
		}
		for j, end := c.Off[v], c.Off[v+1]; j < end; j++ {
			if u := c.Adj[j]; atomic.LoadInt32(&level[u]) == d-1 {
				s.parent[v] = u
				s.parentEdge[v] = c.EdgeID[j]
				atomic.StoreInt32(&level[v], d)
				buf = append(buf, v)
				break
			}
		}
	}
	s.next[w] = buf
}

// bfs is BFSC under the given step rule.
func bfs(cn *par.Canceler, p int, c *graph.CSR, rule stepRule) *RootedForest {
	n := c.N
	p = par.Procs(p)
	s := &bfsState{
		c:          c,
		parent:     make([]int32, n),
		parentEdge: make([]int32, n),
		level:      make([]int32, n),
		frontier:   make([]int32, 0, n),
		next:       make([][]int32, p),
	}
	par.For(p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.level[i] = -1
		}
	})
	f := &RootedForest{N: n, Parent: s.parent, ParentEdge: s.parentEdge, Level: s.level}
	// One method value each, so that a step allocates nothing.
	topDown, bottomUp := s.topDown, s.bottomUp
	unvisited := int(n)
	for r := int32(0); r < n; r++ {
		if s.level[r] != -1 {
			continue
		}
		s.parent[r], s.parentEdge[r], s.level[r] = r, -1, 0
		f.Roots = append(f.Roots, r)
		unvisited--
		s.frontier = append(s.frontier[:0], r)
		for s.depth = 0; len(s.frontier) > 0; {
			if cn.Err() != nil {
				return f
			}
			faults.Inject(cn, siteBFS, 0, int(s.depth))
			if unvisited == 0 {
				break // the last level of the last component finds nothing
			}
			s.depth++
			step, size := topDown, len(s.frontier)
			if rule.bottomUp(size, unvisited, int(n)) {
				step, size = bottomUp, int(n)
			}
			if p == 1 || size < inlineFloor {
				step(0, 0, size)
			} else {
				par.ForWorker(p, size, step)
			}
			s.frontier = s.frontier[:0]
			for w, buf := range s.next {
				s.frontier = append(s.frontier, buf...)
				s.next[w] = buf[:0]
			}
			unvisited -= len(s.frontier)
		}
	}
	return f
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
