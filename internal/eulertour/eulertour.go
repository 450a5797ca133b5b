// Package eulertour constructs Euler tours of spanning forests, the step 2
// substrate of Tarjan–Vishkin. Two constructions are provided:
//
//   - FromForest (TV-SMP, §3.1): the PRAM-faithful construction. Both arcs
//     of every tree edge are sorted with the Helman–JáJá sample sort so that
//     each vertex's arcs are grouped (the circular adjacency list) and
//     anti-parallel mates can be linked; the tour successor of arc (u,v) is
//     the arc after (v,u) in v's circular list. The result is a *linked*
//     tour (successor array) that must be list-ranked before tree
//     computations — the conversion + ranking cost the paper measures.
//   - DFSOrderParallel (§3.2, after Cong & Bader [6]): the tour of a rooted
//     forest with every arc's position computed from subtree sizes, already
//     in tour order, so tree computations reduce to prefix sums. No engine
//     runs it: the rooted engines number their trees with treecomp.Order
//     and LevelOrder.Number, which give the same numbering without writing
//     the arcs. The benchmark's kernel suite and the ablations time it.
//
// Both produce an ArcSeq — arcs in tour position order — as the common
// currency consumed by treecomp.Compute. Multi-vertex components are
// concatenated; singleton (isolated) components carry no arcs and appear
// only in Roots.
package eulertour

import (
	"fmt"

	"bicc/internal/graph"
	"bicc/internal/listrank"
	"bicc/internal/par"
	"bicc/internal/psort"
)

// ArcSeq is an Euler tour of a spanning forest with arcs laid out in tour
// order. Position i holds the i-th arc of the concatenated tours of all
// multi-vertex components; CompFirst[k] is the position where component k's
// tour begins and Roots[k] its root. Roots of singleton components are
// appended to Roots after all multi-vertex roots (they own no arcs).
type ArcSeq struct {
	N         int32   // number of vertices in the graph
	Src, Dst  []int32 // arc endpoints, indexed by tour position
	EdgeID    []int32 // originating graph edge id per arc
	Advance   []bool  // true when the arc's first traversal (discovers Dst)
	CompFirst []int32 // tour start position per multi-vertex component
	Roots     []int32 // multi-vertex roots (aligned with CompFirst), then singleton roots
}

// NumArcs returns the total arc count (2 per tree edge).
func (s *ArcSeq) NumArcs() int { return len(s.Src) }

// Tour is the linked (unranked) Euler tour produced by FromForest: Next[a]
// is the successor arc of a, with component tours chained head-to-tail into
// one global list and -1 terminating the last. Arc 2k is edges[treeID[k]]
// traversed U→V and arc 2k+1 is its reversal, so twin(a) = a^1.
type Tour struct {
	N      int32
	Src    []int32
	Dst    []int32
	EdgeID []int32
	Next   []int32
	Heads  []int32 // head arc per multi-vertex component, in chain order
	Roots  []int32 // multi-vertex roots in chain order, then singleton roots
}

// FromForest builds the linked Euler tour of the spanning forest given by
// treeEdges (indices into edges) rooted at the given roots, one root per
// component (including singleton components). It uses sample sort with p
// workers to build the circular adjacency list.
func FromForest(p int, n int32, edges []graph.Edge, treeEdges []int32, roots []int32) (*Tour, error) {
	na := 2 * len(treeEdges)
	t := &Tour{
		N:      n,
		Src:    make([]int32, na),
		Dst:    make([]int32, na),
		EdgeID: make([]int32, na),
		Next:   make([]int32, na),
	}
	// Materialize both arcs per tree edge; twin(a) = a^1 by construction.
	items := make([]psort.Pair, na)
	par.For(p, len(treeEdges), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			e := edges[treeEdges[k]]
			a0, a1 := 2*k, 2*k+1
			t.Src[a0], t.Dst[a0] = e.U, e.V
			t.Src[a1], t.Dst[a1] = e.V, e.U
			t.EdgeID[a0], t.EdgeID[a1] = treeEdges[k], treeEdges[k]
			items[a0] = psort.Pair{Key: uint64(uint32(e.U))<<32 | uint64(uint32(e.V)), Val: int32(a0)}
			items[a1] = psort.Pair{Key: uint64(uint32(e.V))<<32 | uint64(uint32(e.U)), Val: int32(a1)}
		}
	})
	// Sort arcs by (src, dst): groups each vertex's arcs contiguously — the
	// circular adjacency list.
	psort.SampleSortPairs(p, items)
	pos := make([]int32, na) // sorted position per arc id
	par.For(p, na, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos[items[i].Val] = int32(i)
		}
	})
	firstIdx := make([]int32, n)
	lastIdx := make([]int32, n)
	par.For(p, int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			firstIdx[v] = -1
			lastIdx[v] = -1
		}
	})
	par.For(p, na, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := int32(items[i].Key >> 32)
			if i == 0 || int32(items[i-1].Key>>32) != src {
				firstIdx[src] = int32(i)
			}
			if i == na-1 || int32(items[i+1].Key>>32) != src {
				lastIdx[src] = int32(i)
			}
		}
	})
	// Tour successor: succ(a) = nextAround(twin(a)), where nextAround wraps
	// within the source vertex's group.
	par.For(p, na, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			twinPos := pos[a^1]
			src := t.Src[a^1] // == Dst[a]
			var nxt int32
			if int(twinPos) < na-1 && int32(items[twinPos+1].Key>>32) == src {
				nxt = items[twinPos+1].Val
			} else {
				nxt = items[firstIdx[src]].Val
			}
			t.Next[a] = nxt
		}
	})
	// Break each component's circuit at its root and chain the tours.
	var singles []int32
	var prevTail int32 = -1
	for _, r := range roots {
		if firstIdx[r] == -1 {
			// Singleton component: no arcs; kept only for numbering.
			singles = append(singles, r)
			continue
		}
		head := items[firstIdx[r]].Val
		tail := items[lastIdx[r]].Val ^ 1 // succ(tail) wraps to head
		if t.Next[tail] != head {
			return nil, fmt.Errorf("eulertour: root %d tour is not a circuit (bad forest input)", r)
		}
		t.Heads = append(t.Heads, head)
		t.Roots = append(t.Roots, r)
		if prevTail != -1 {
			t.Next[prevTail] = head
		}
		t.Next[tail] = -1
		prevTail = tail
	}
	t.Roots = append(t.Roots, singles...)
	return t, nil
}

// Sequence list-ranks a linked tour and permutes its arcs into tour order,
// producing the ArcSeq consumed by tree computations. useHJ selects the
// Helman–JáJá ranker; otherwise Wyllie pointer jumping is used (the TV-SMP
// emulation cost). It fails if the tour is malformed.
func Sequence(p int, t *Tour, useHJ bool) (*ArcSeq, error) {
	na := len(t.Next)
	seq := &ArcSeq{
		N:         t.N,
		Src:       make([]int32, na),
		Dst:       make([]int32, na),
		EdgeID:    make([]int32, na),
		Advance:   make([]bool, na),
		CompFirst: make([]int32, len(t.Heads)),
		Roots:     append([]int32(nil), t.Roots...),
	}
	if na == 0 {
		return seq, nil
	}
	var rank []int32
	if useHJ {
		r, err := listrank.RanksHJ(p, t.Next, t.Heads[0])
		if err != nil {
			return nil, err
		}
		rank = r
	} else {
		rank = listrank.Ranks(p, t.Next, t.Heads[0])
	}
	par.For(p, na, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			i := rank[a]
			seq.Src[i] = t.Src[a]
			seq.Dst[i] = t.Dst[a]
			seq.EdgeID[i] = t.EdgeID[a]
			seq.Advance[i] = rank[a] < rank[a^1]
		}
	})
	for k, h := range t.Heads {
		seq.CompFirst[k] = rank[h]
	}
	return seq, nil
}
