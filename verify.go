package bicc

import (
	"fmt"

	"bicc/internal/core"
)

// Verify checks a Result against the definition of biconnected components,
// independently of the algorithms that produce results: every edge carries
// a dense block id, each block's edge-induced subgraph is connected, and
// each multi-edge block stays connected after removing any single vertex.
// Those conditions uniquely determine the block decomposition (splitting a
// true block yields a part whose union point would be a cut vertex;
// merging blocks yields a part with a cut vertex — both rejected by the
// biconnectivity check), so a nil return certifies the result.
//
// Cost is O(sum over blocks of v_b * m_b) — verifier-grade, not
// production-grade; use it in tests and audits.
func Verify(g *Graph, r *Result) error {
	if g == nil || r == nil {
		return fmt.Errorf("bicc: Verify: nil input")
	}
	m := g.NumEdges()
	if len(r.EdgeComponent) != m {
		return fmt.Errorf("bicc: Verify: %d edge labels for %d edges", len(r.EdgeComponent), m)
	}
	seen := make([]bool, r.NumComponents)
	for i, c := range r.EdgeComponent {
		if c < 0 || int(c) >= r.NumComponents {
			return fmt.Errorf("bicc: Verify: edge %d has block id %d outside [0,%d)", i, c, r.NumComponents)
		}
		seen[c] = true
	}
	for c, s := range seen {
		if !s {
			return fmt.Errorf("bicc: Verify: block id %d is unused (ids must be dense)", c)
		}
	}
	// Group edges by block.
	blocks := make([][]int32, r.NumComponents)
	for i, c := range r.EdgeComponent {
		blocks[c] = append(blocks[c], int32(i))
	}
	edges := g.Edges()
	for b, blockEdges := range blocks {
		if err := verifyBlock(edges, blockEdges); err != nil {
			return fmt.Errorf("bicc: Verify: block %d: %w", b, err)
		}
	}
	return nil
}

// verifyBlock checks that the edge set is connected and 2-connected (or a
// single edge).
func verifyBlock(edges []Edge, ids []int32) error {
	if len(ids) == 1 {
		return nil // a bridge block is trivially valid
	}
	sub, verts := core.Subgraph(edges, ids)
	nv := int(sub.N)
	adj := make([][]int32, nv)
	for _, e := range sub.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// Connectivity with every single vertex removed (index nv means
	// "remove nothing" — plain connectivity).
	reach := make([]bool, nv)
	queue := make([]int32, 0, nv)
	for skip := 0; skip <= nv; skip++ {
		removed := int32(skip)
		if skip == nv {
			removed = -1
		}
		for i := range reach {
			reach[i] = false
		}
		start := int32(0)
		if removed == 0 {
			start = 1
		}
		reach[start] = true
		queue = append(queue[:0], start)
		count := 1
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range adj[v] {
				if w == removed || reach[w] {
					continue
				}
				reach[w] = true
				count++
				queue = append(queue, w)
			}
		}
		want := nv
		if removed >= 0 {
			want = nv - 1
		}
		if count != want {
			if removed < 0 {
				return fmt.Errorf("edge set is not connected (%d of %d vertices reachable)", count, nv)
			}
			return fmt.Errorf("vertex %d is a cut vertex inside the block", verts[removed])
		}
	}
	return nil
}
