package graph

import (
	"time"

	"bicc/internal/par"
	"bicc/internal/prefix"
)

// The locality decision's constants, fitted from timed rows (EXPERIMENTS
// "A locality order per graph"): a graph gets a local view only when its
// per-vertex arrays outgrow the cache, its ids carry no locality already,
// and a bounded BFS shows locality to recover.
const (
	// localFloor is the vertex count below which no graph is relabeled
	// and the check is O(1): at the floor, ten int32 arrays per vertex
	// (2.6 MB) outgrow a 2 MB L2, and both service workloads' graphs
	// (16,000 and 35,001 vertices) stay below it.
	localFloor = 1 << 16
	// localSample is how many edges, evenly spaced, estimate the mean
	// |u−v|.
	localSample = 1 << 12
	// localSpread: ids are already local when the sampled mean |u−v| is
	// below n/localSpread. Random ids give n/3, and BFS order keeps the
	// mean far below n/localSpread, so a view is never relabeled again.
	localSpread = 16
	// probeVisits bounds the probe, a BFS from vertex 0 (bfsOrder), and
	// probeLevels is the number of levels at which it finds locality to
	// recover: a graph whose BFS needs that many levels to reach
	// probeVisits vertices grows slowly enough for BFS order to keep
	// neighbours close. Tori need 15 (3-D) to 45 (2-D) levels and ran
	// 28–42% faster relabeled; random graphs need 3–5, and their relabel
	// cost more than one solve saved.
	probeVisits = 1 << 12
	probeLevels = 8
)

// Local returns the graph the engines run on: g's local view when g has
// one, else g. The view is g relabeled in BFS order, with the same edge
// order and its own CSR, so every per-edge answer computed on it is g's.
//
// Below localFloor vertices Local returns g at once. Above it, the first
// call decides under g's lock: it samples the edges' mean |u−v|, builds g's
// CSR with p workers if it has none (converted is when that finished; zero
// when the call converted nothing), probes it with a bounded BFS, and
// builds the view when the probe finds locality to recover. A graph with
// a view drops its own CSR; a later CSR call converts again. fresh reports
// that the decision did not exist when the call began: the call made it,
// or waited while a concurrent call did. cn is polled between passes; a
// call that panics or is canceled caches no decision.
func (g *Graph) Local(cn *par.Canceler, p int) (l *Graph, fresh bool, converted time.Time, err error) {
	if g.N < localFloor {
		return g, false, converted, nil
	}
	if l = g.local.Load(); l != nil {
		return l, false, converted, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if l = g.local.Load(); l != nil {
		return l, true, converted, nil
	}
	l = g
	if !idsLocal(g.EdgeList) {
		c := g.csr.Load()
		if c == nil {
			c = ToCSR(p, g.EdgeList)
			g.csr.Store(c)
			converted = time.Now()
		}
		if err := cn.Err(); err != nil {
			return nil, true, converted, err
		}
		if _, _, levels := bfsOrder(c, probeVisits); levels >= probeLevels {
			_, view := Relabel(cn, p, c, g.EdgeList)
			if err := cn.Err(); err != nil {
				return nil, true, converted, err
			}
			l = view
			g.csr.Store(nil)
		}
	}
	g.local.Store(l)
	return l, true, converted, nil
}

// idsLocal reports whether the mean |u−v| over localSample evenly spaced
// edges of el is below n/localSpread.
func idsLocal(el *EdgeList) bool {
	m := len(el.Edges)
	if m == 0 {
		return true
	}
	var sum, k int64
	for i := 0; i < m; i += max(1, m/localSample) {
		e := el.Edges[i]
		sum += int64(max(e.U-e.V, e.V-e.U))
		k++
	}
	return sum*localSpread < k*int64(el.N)
}

// bfsOrder numbers c's vertices in BFS order, each component from its
// smallest vertex in increasing order of those, and stops once limit
// vertices are numbered. It returns the numbering (perm[v] is v's number,
// -1 for none), its inverse over the numbered vertices, and how many BFS
// levels it expanded, counting each component's first.
func bfsOrder(c *CSR, limit int) (perm, order []int32, levels int) {
	perm = make([]int32, c.N)
	for v := range perm {
		perm[v] = -1
	}
	order = make([]int32, 0, min(limit, int(c.N)))
	for s := int32(0); s < c.N && len(order) < limit; s++ {
		if perm[s] != -1 {
			continue
		}
		perm[s] = int32(len(order))
		order = append(order, s)
		// order[next] starts the next level: when h reaches it, the level
		// before is expanded, so len(order) is where the new level ends.
		for h, next := len(order)-1, len(order)-1; h < len(order) && len(order) < limit; h++ {
			if h == next {
				levels++
				next = len(order)
			}
			for _, u := range c.Neighbors(order[h]) {
				if perm[u] == -1 {
					perm[u] = int32(len(order))
					order = append(order, u)
				}
			}
		}
	}
	return perm, order, levels
}

// Relabel numbers c's vertices in BFS order, each component from its
// smallest vertex in increasing order of those, and returns the numbering
// (perm[v] is v's new id) and el relabeled by it: a Graph whose edge i is
// (perm[u_i], perm[v_i]) and whose CSR, gathered from c, equals ToCSR of
// its edge list. c must be el's CSR. cn is polled between passes; when it
// trips, the result is incomplete and must be discarded.
func Relabel(cn *par.Canceler, p int, c *CSR, el *EdgeList) (perm []int32, view *Graph) {
	n, m := c.N, len(el.Edges)
	perm, order, _ := bfsOrder(c, int(n))
	if cn.Err() != nil {
		return nil, nil
	}
	edges := make([]Edge, m)
	par.ForC(cn, p, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			edges[i] = Edge{U: perm[e.U], V: perm[e.V]}
		}
	})
	if cn.Err() != nil {
		return nil, nil
	}
	// Vertex perm[v] of the view has v's arcs, in the same (edge id)
	// order, which is the order ToCSR scatters them in. The copy walks c
	// in order and writes the view's rows where they fall.
	off := make([]int32, n+1)
	par.ForC(cn, p, int(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off[i+1] = c.Degree(order[i])
		}
	})
	prefix.InclusiveSum32(p, off)
	adj := make([]int32, 2*m)
	eid := make([]int32, 2*m)
	par.ForC(cn, p, int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			at := off[perm[v]]
			for j := c.Off[v]; j < c.Off[v+1]; j++ {
				adj[at] = perm[c.Adj[j]]
				eid[at] = c.EdgeID[j]
				at++
			}
		}
	})
	view = &Graph{EdgeList: &EdgeList{N: n, Edges: edges}}
	view.csr.Store(&CSR{N: n, Off: off, Adj: adj, EdgeID: eid})
	view.local.Store(view)
	return perm, view
}
