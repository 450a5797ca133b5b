package core

import (
	"bicc/internal/conncomp"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// Fault-injection point in the DFS, sharing the cadence of the cancellation
// poll (iter counts polls). The sequential engine is the fallback of last
// resort, so proving it too degrades to a typed error matters doubly.
var siteSeq = faults.RegisterSite("core.seq", true)

// Sequential computes biconnected components with Tarjan's linear-time
// depth-first-search algorithm [19] (with Hopcroft's edge-stack block
// extraction) — the "best sequential implementation" all parallel speedups
// in the paper are measured against. The implementation is iterative: an
// explicit DFS stack avoids goroutine-stack limits on deep graphs such as
// the paper's pathological chain.
func Sequential(g *graph.EdgeList) *Result {
	res, _ := SequentialT(nil, nil, graph.Wrap(g))
	return res
}

// SequentialT is Sequential with cooperative cancellation, polled every few
// thousand DFS steps, and with the run's single timed phase mirrored as a
// child span of sp (nil sp records nothing), matching Custom's per-phase
// span emission. It returns the cancellation cause when cn trips mid-run.
// Like Custom it is a fault boundary: panics are recovered and returned as
// *par.PanicError. It reads g's CSR, converting it with one worker (a
// PhaseToCSR lap) when no earlier call has.
func SequentialT(cn *par.Canceler, sp *obs.Span, g *graph.Graph) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, par.AsPanicError(-1, v)
		}
	}()
	faults.Inject(cn, siteSeq, 0, 0)
	sw := NewStopwatch(sp)
	c, fresh := g.CSR(1)
	if fresh {
		sw.Lap(PhaseToCSR)
	}
	n := int(g.N)
	m := len(g.Edges)
	edgeComp := make([]int32, m)
	for i := range edgeComp {
		edgeComp[i] = -1
	}
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	// DFS frames: vertex, cursor into its adjacency, and the edge that
	// discovered it (to skip on the way back and to distinguish the parent
	// edge from parallel edges).
	type frame struct {
		v        int32
		cursor   int32
		viaEdge  int32
		viaStart int32 // edge-stack depth when (parent, v) was pushed
	}
	stack := make([]frame, 0, 64)
	edgeStack := make([]int32, 0, m)
	var timer int32
	var numComp int32
	var steps int
	for s := int32(0); s < int32(n); s++ {
		if disc[s] != -1 {
			continue
		}
		disc[s] = timer
		low[s] = timer
		timer++
		stack = append(stack[:0], frame{v: s, cursor: c.Off[s], viaEdge: -1})
		for len(stack) > 0 {
			steps++
			if steps&0xfff == 0 {
				faults.Inject(cn, siteSeq, 0, steps>>12)
				if err := cn.Err(); err != nil {
					return nil, err
				}
			}
			fr := &stack[len(stack)-1]
			v := fr.v
			if fr.cursor < c.Off[v+1] {
				i := fr.cursor
				fr.cursor++
				w := c.Adj[i]
				id := c.EdgeID[i]
				if id == fr.viaEdge {
					continue // the tree edge we arrived by
				}
				if disc[w] == -1 {
					// Tree edge: push it and descend.
					edgeStack = append(edgeStack, id)
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{
						v: w, cursor: c.Off[w], viaEdge: id,
						viaStart: int32(len(edgeStack) - 1),
					})
				} else if disc[w] < disc[v] {
					// Back edge to an ancestor (each undirected edge handled
					// once, from the deeper endpoint).
					edgeStack = append(edgeStack, id)
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
				continue
			}
			// Retreat from v.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				break
			}
			parent := &stack[len(stack)-1]
			if low[v] < low[parent.v] {
				low[parent.v] = low[v]
			}
			if low[v] >= disc[parent.v] {
				// parent.v is a cut vertex (or the root finishing a block):
				// everything above the tree edge (parent.v, v) is one block.
				for int32(len(edgeStack)) > fr.viaStart {
					id := edgeStack[len(edgeStack)-1]
					edgeStack = edgeStack[:len(edgeStack)-1]
					edgeComp[id] = numComp
				}
				numComp++
			}
		}
	}
	sw.Lap("sequential-dfs")
	// Densify block ids into first-occurrence order over the edge list, the
	// same canonical numbering the TV engines emit from finishResult. The DFS
	// pops blocks in completion order, which is a different (if equally
	// valid) numbering; canonicalizing here makes every engine produce
	// byte-identical EdgeComp for the same edge list, which the incremental
	// layer relies on to stitch partial recomputations into labelings that
	// match a from-scratch run of any engine.
	k := conncomp.Normalize(edgeComp)
	return &Result{NumComp: k, EdgeComp: edgeComp, Phases: sw.phases}, nil
}
