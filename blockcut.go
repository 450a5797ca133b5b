package bicc

import "bicc/internal/core"

// BlockCutTree is the bipartite forest over the blocks and cut vertices of
// a graph: each cut vertex is linked to every block containing it. It is
// the standard structure for fault-tolerance analysis and augmentation
// planning. Accessors return nil for out-of-range ids, and their slices
// must not be modified.
type BlockCutTree struct {
	t *core.BlockIndex
}

// BlockCutTree assembles the block-cut tree of the decomposition.
func (r *Result) BlockCutTree() *BlockCutTree {
	return &BlockCutTree{t: core.NewBlockIndex(r.g.N, r.g.Edges, r.EdgeComponent, r.NumComponents)}
}

// NumBlocks returns the number of block nodes.
func (t *BlockCutTree) NumBlocks() int { return t.t.NumBlocks() }

// CutVertices returns the cut vertices, ascending.
func (t *BlockCutTree) CutVertices() []int32 { return t.t.CutVertices() }

// BlocksOfVertex returns the block ids containing v, ascending (more than
// one exactly when v is a cut vertex; empty for isolated vertices).
func (t *BlockCutTree) BlocksOfVertex(v int32) []int32 { return t.t.BlocksOfVertex(v) }

// VerticesOfBlock returns all vertices of block b, ascending.
func (t *BlockCutTree) VerticesOfBlock(b int32) []int32 { return t.t.VerticesOfBlock(b) }

// CutsOfBlock returns the cut vertices on block b's boundary, ascending.
func (t *BlockCutTree) CutsOfBlock(b int32) []int32 { return t.t.CutsOfBlock(b) }

// LeafBlocks returns blocks incident to at most one cut vertex — the
// periphery of the tree, the natural endpoints for augmentation links.
func (t *BlockCutTree) LeafBlocks() []int32 { return t.t.LeafBlocks() }

// NumNodes returns blocks + cut vertices.
func (t *BlockCutTree) NumNodes() int { return t.t.NumNodes() }

// NumTreeEdges returns the number of block–cut incidences.
func (t *BlockCutTree) NumTreeEdges() int { return t.t.NumTreeEdges() }

// CountBlocks returns only the number of biconnected components of g,
// computed by the TV-filter engine on g's local view — the cheapest way to
// answer "how many blocks?" or "is this biconnected?".
func CountBlocks(g *Graph, opt *Options) (int, error) {
	if g == nil {
		return 0, ErrNilGraph
	}
	procs := 0
	if opt != nil {
		procs = opt.Procs
	}
	e, _ := TVFilter.engine()
	res, err := e.Run(nil, nil, procs, g.gr)
	if err != nil {
		return 0, err
	}
	return res.NumComp, nil
}

// ComponentSubgraph extracts block k as a standalone graph with compact
// vertex ids. vertexMap[i] gives the original id of the subgraph's vertex
// i, and edgeMap[j] the original index of its edge j. Planarity testers and
// per-block analyses consume blocks in this form.
func (r *Result) ComponentSubgraph(k int32) (sub *Graph, vertexMap, edgeMap []int32) {
	for i, c := range r.EdgeComponent {
		if c == k {
			edgeMap = append(edgeMap, int32(i))
		}
	}
	el, vertexMap := core.Subgraph(r.g.Edges, edgeMap)
	return wrap(el), vertexMap, edgeMap
}
