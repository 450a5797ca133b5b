package core

import (
	"context"
	"fmt"

	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// SiteBlockIndex fires once per block while BuildBlockIndex walks the
// blocks; cancelable, so KindCancel aborts the build mid-way. The name is
// the one the per-block query path has always injected at.
var SiteBlockIndex = faults.RegisterSite("shard.build", true)

// BlockIndex is the block↔vertex incidence of a block decomposition: the
// blocks containing each vertex, the vertices of each block (both
// ascending) and the edge ids of each block (ascending), as three CSR
// lists. It is the block-cut tree (forest, for disconnected graphs) — the
// bipartite graph linking every cut vertex to the blocks containing it, the
// standard structure for single-point-of-failure analysis in fault-tolerant
// network design, the paper's motivating application — without a
// materialized node list: a vertex is a cut vertex exactly when it lies in
// two or more blocks.
//
// An index is immutable. Every list accessor returns nil for an
// out-of-range id or an empty list, and its slice aliases the index, so
// callers must not modify it.
type BlockIndex struct {
	numBlocks int
	// The blocks of vertex v are vBlocks[vOff[v]:vOff[v+1]], the vertices
	// of block b are bVerts[bOff[b]:bOff[b+1]], and its edge ids are
	// eIDs[eOff[b]:eOff[b+1]].
	vOff, vBlocks []int32
	bOff, bVerts  []int32
	eOff, eIDs    []int32
}

// NewBlockIndex indexes the decomposition of an n-vertex graph whose edge
// edges[i] lies in block labels[i], with every label in [0, numBlocks).
func NewBlockIndex(n int32, edges []graph.Edge, labels []int32, numBlocks int) *BlockIndex {
	x, _ := buildBlockIndex(nil, n, edges, labels, numBlocks)
	return x
}

// BuildBlockIndex is NewBlockIndex for a caller that may give up. It honors
// ctx between blocks and fires SiteBlockIndex once per block; on
// cancellation, an injected fault or a panic it returns an error and no
// index, so a cache can never hold a partial one. Panics come back as
// *par.PanicError.
func BuildBlockIndex(ctx context.Context, n int32, edges []graph.Edge, labels []int32, numBlocks int) (x *BlockIndex, err error) {
	defer func() {
		if v := recover(); v != nil {
			x, err = nil, par.AsPanicError(-1, v)
		}
	}()
	if len(labels) != len(edges) {
		return nil, fmt.Errorf("core: %d block labels for %d edges", len(labels), len(edges))
	}
	cancel := &par.Canceler{}
	stop := cancel.Watch(ctx)
	defer stop()
	x, err = buildBlockIndex(cancel, n, edges, labels, numBlocks)
	if err == nil {
		err = cancel.Err()
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// buildBlockIndex builds the index with array passes only — counting
// sorts, no comparison sort and no map. Edge ids are grouped by block;
// walking the blocks in ascending order and stamping each endpoint with
// the last block it was listed under yields every (vertex, block)
// membership once, grouped by block. Bucketing those by vertex in block
// order leaves each vertex's blocks ascending, and bucketing them back by
// block in vertex order leaves each block's vertices ascending. A non-nil c
// is checked, and SiteBlockIndex fired, once per block.
func buildBlockIndex(c *par.Canceler, n int32, edges []graph.Edge, labels []int32, numBlocks int) (*BlockIndex, error) {
	k := int32(numBlocks)
	eOff := make([]int32, k+1)
	for _, b := range labels {
		eOff[b+1]++
	}
	for b := int32(0); b < k; b++ {
		eOff[b+1] += eOff[b]
	}
	eIDs := make([]int32, len(labels))
	fill := append([]int32(nil), eOff[:k]...)
	for i, b := range labels {
		eIDs[fill[b]] = int32(i)
		fill[b]++
	}

	// A block-cut forest with k blocks has at most k-1+cuts edges, so a
	// decomposition has at most n+k memberships.
	stamp := make([]int32, n) // b+1 of the block v was last listed under
	members := make([]int32, 0, int(n)+int(k))
	bOff := make([]int32, k+1)
	for b := int32(0); b < k; b++ {
		if c != nil {
			faults.Inject(c, SiteBlockIndex, 0, int(b))
			if err := c.Err(); err != nil {
				return nil, err
			}
		}
		bOff[b] = int32(len(members))
		mark := b + 1
		for _, i := range eIDs[eOff[b]:eOff[b+1]] {
			e := edges[i]
			if stamp[e.U] != mark {
				stamp[e.U] = mark
				members = append(members, e.U)
			}
			if stamp[e.V] != mark {
				stamp[e.V] = mark
				members = append(members, e.V)
			}
		}
	}
	bOff[k] = int32(len(members))

	vOff := make([]int32, n+1)
	for _, v := range members {
		vOff[v+1]++
	}
	for v := int32(0); v < n; v++ {
		vOff[v+1] += vOff[v]
	}
	vBlocks := make([]int32, len(members))
	next := stamp // reused as the per-vertex fill cursor
	copy(next, vOff[:n])
	for b := int32(0); b < k; b++ {
		for _, v := range members[bOff[b]:bOff[b+1]] {
			vBlocks[next[v]] = b
			next[v]++
		}
	}
	bVerts := members // every membership is now in vBlocks: overwrite in place
	copy(fill, bOff[:k])
	for v := int32(0); v < n; v++ {
		for _, b := range vBlocks[vOff[v]:vOff[v+1]] {
			bVerts[fill[b]] = v
			fill[b]++
		}
	}
	return &BlockIndex{
		numBlocks: numBlocks,
		vOff:      vOff, vBlocks: vBlocks,
		bOff: bOff, bVerts: bVerts,
		eOff: eOff, eIDs: eIDs,
	}, nil
}

// span returns vals[off[i]:off[i+1]], or nil when i is out of range or the
// span is empty.
func span(off, vals []int32, i int32) []int32 {
	if i < 0 || int(i) >= len(off)-1 {
		return nil
	}
	lo, hi := off[i], off[i+1]
	if lo == hi {
		return nil
	}
	return vals[lo:hi:hi]
}

// NumBlocks returns the number of blocks.
func (x *BlockIndex) NumBlocks() int { return x.numBlocks }

// BlocksOfVertex returns the blocks containing v, ascending: two or more
// exactly for a cut vertex, none for an isolated one.
func (x *BlockIndex) BlocksOfVertex(v int32) []int32 { return span(x.vOff, x.vBlocks, v) }

// VerticesOfBlock returns the vertices of block b, ascending.
func (x *BlockIndex) VerticesOfBlock(b int32) []int32 { return span(x.bOff, x.bVerts, b) }

// EdgesOfBlock returns the ids of block b's edges, ascending.
func (x *BlockIndex) EdgesOfBlock(b int32) []int32 { return span(x.eOff, x.eIDs, b) }

// IsCut reports whether v is a cut vertex.
func (x *BlockIndex) IsCut(v int32) bool { return len(x.BlocksOfVertex(v)) >= 2 }

// CutVertices returns the cut vertices, ascending.
func (x *BlockIndex) CutVertices() []int32 {
	var cuts []int32
	for v := int32(0); v < int32(len(x.vOff))-1; v++ {
		if x.vOff[v+1]-x.vOff[v] >= 2 {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// CutsOfBlock returns the cut vertices on block b's boundary, ascending.
func (x *BlockIndex) CutsOfBlock(b int32) []int32 {
	var cuts []int32
	for _, v := range x.VerticesOfBlock(b) {
		if x.IsCut(v) {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// NumNodes returns the number of tree nodes: blocks plus cut vertices.
func (x *BlockIndex) NumNodes() int { return x.numBlocks + len(x.CutVertices()) }

// NumTreeEdges returns the number of block–cut incidences.
func (x *BlockIndex) NumTreeEdges() int {
	n := 0
	for v := 0; v < len(x.vOff)-1; v++ {
		if d := int(x.vOff[v+1] - x.vOff[v]); d >= 2 {
			n += d
		}
	}
	return n
}

// LeafBlocks returns the blocks incident to at most one cut vertex — the
// periphery of the tree. In network-augmentation heuristics, pairing leaf
// blocks is the standard way to reduce the number of cut vertices.
func (x *BlockIndex) LeafBlocks() []int32 {
	var leaves []int32
	for b := int32(0); b < int32(x.numBlocks); b++ {
		cuts := 0
		for _, v := range x.VerticesOfBlock(b) {
			if x.IsCut(v) {
				if cuts++; cuts > 1 {
					break
				}
			}
		}
		if cuts <= 1 {
			leaves = append(leaves, b)
		}
	}
	return leaves
}

// Bytes estimates the resident size of the index, for cache accounting.
func (x *BlockIndex) Bytes() int64 {
	return 256 + 4*int64(len(x.vOff)+len(x.vBlocks)+len(x.bOff)+len(x.bVerts)+len(x.eOff)+len(x.eIDs))
}

// Subgraph remaps the edges with the given ids to a standalone graph whose
// vertices are numbered in order of first appearance; vertexMap[i] is the
// original id of its vertex i. Result.ComponentSubgraph and the per-block
// endpoint both extract one block through it, with the block's edge ids
// ascending.
func Subgraph(edges []graph.Edge, ids []int32) (sub *graph.EdgeList, vertexMap []int32) {
	if len(ids) == 0 {
		return &graph.EdgeList{}, nil
	}
	local := make(map[int32]int32, len(ids))
	out := make([]graph.Edge, len(ids))
	for j, i := range ids {
		e := edges[i]
		for _, v := range [2]int32{e.U, e.V} {
			if _, ok := local[v]; !ok {
				local[v] = int32(len(vertexMap))
				vertexMap = append(vertexMap, v)
			}
		}
		out[j] = graph.Edge{U: local[e.U], V: local[e.V]}
	}
	return &graph.EdgeList{N: int32(len(vertexMap)), Edges: out}, vertexMap
}
