// Package shard partitions a completed biconnected-components decomposition
// into per-block shards, so downstream queries (articulation membership,
// per-block vertex sets, block subgraphs) route to one block's state instead
// of re-serving the monolithic Result.
//
// A Set is the sharded form of one decomposition: a compact vertex→block
// routing index (CSR over the block-cut incidence) plus one Shard per block
// holding the block's vertex set, its cut vertices, and the remapped
// subgraph in exactly the shape Result.ComponentSubgraph produces. Sets are
// immutable once built; the service keeps one on the result-cache entry of
// the decomposition it was built from.
//
// Construction is instrumented with the shard.build fault site and honors
// context cancellation between blocks: a canceled or faulted build returns
// an error and no Set, so a cache can never hold partial shard state.
package shard

import (
	"context"
	"errors"
	"fmt"

	"bicc"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// SiteBuild fires once per block while a decomposition is being sharded;
// cancelable, so KindCancel aborts the build mid-way.
var SiteBuild = faults.RegisterSite("shard.build", true)

// Shard is one block's standalone query state. All fields are immutable
// after BuildSet returns.
type Shard struct {
	// Block is the block id in the source decomposition's numbering.
	Block int32
	// Vertices are the block's vertices, ascending.
	Vertices []int32
	// Cuts are the cut vertices on the block's boundary, ascending.
	Cuts []int32
	// Sub is the block as a standalone graph with compact vertex ids,
	// VertexMap[i] the original id of compact vertex i, and EdgeMap[j] the
	// original edge index of compact edge j — byte for byte the shape
	// Result.ComponentSubgraph returns.
	Sub       *graph.EdgeList
	VertexMap []int32
	EdgeMap   []int32
}

// Set is the sharded form of one decomposition: the routing index plus the
// shards themselves.
type Set struct {
	// FP is the key the set was built under.
	FP string
	// Algorithm names the engine that produced the decomposition; block
	// numbering is only meaningful relative to it.
	Algorithm string
	// N is the vertex count of the source graph.
	N int32
	// NumBlocks is the number of biconnected components.
	NumBlocks int
	// Shards holds every block's state, indexed by block id.
	Shards []*Shard

	// offsets/blocks are the CSR vertex→block index: the blocks containing
	// vertex v are blocks[offsets[v]:offsets[v+1]], ascending.
	offsets []int32
	blocks  []int32
}

// BlocksOfVertex returns the ids of the blocks containing v, ascending —
// nil for isolated or out-of-range vertices, matching
// BlockCutTree.BlocksOfVertex. The returned slice aliases the index and
// must not be modified.
func (s *Set) BlocksOfVertex(v int32) []int32 {
	if v < 0 || v >= s.N {
		return nil
	}
	lo, hi := s.offsets[v], s.offsets[v+1]
	if lo == hi {
		return nil
	}
	return s.blocks[lo:hi:hi]
}

// IsCut reports whether v is a cut vertex: membership in two or more
// blocks, read straight off the routing index.
func (s *Set) IsCut(v int32) bool {
	if v < 0 || v >= s.N {
		return false
	}
	return s.offsets[v+1]-s.offsets[v] >= 2
}

// CutVertices enumerates the cut vertices, ascending.
func (s *Set) CutVertices() []int32 {
	var out []int32
	for v := int32(0); v < s.N; v++ {
		if s.offsets[v+1]-s.offsets[v] >= 2 {
			out = append(out, v)
		}
	}
	return out
}

// Bytes estimates the resident size of the set — routing index plus every
// shard — for cache budget accounting.
func (s *Set) Bytes() int64 {
	n := 256 + 4*int64(len(s.offsets)+len(s.blocks))
	for _, sh := range s.Shards {
		n += 256 + 4*int64(len(sh.Vertices)+len(sh.Cuts)+len(sh.VertexMap)+len(sh.EdgeMap)) +
			8*int64(len(sh.Sub.Edges))
	}
	return n
}

// BuildSet partitions a completed decomposition into per-block shards. g
// must be the graph res was computed on. The build honors ctx between
// blocks and fires the shard.build fault site once per block; on
// cancellation or injected fault it returns an error and no Set — there is
// no partial output. Panics (injected or otherwise) are contained and
// returned as *par.PanicError.
func BuildSet(ctx context.Context, fp string, g *bicc.Graph, res *bicc.Result) (set *Set, err error) {
	defer func() {
		if v := recover(); v != nil {
			set, err = nil, par.AsPanicError(-1, v)
		}
	}()
	if g == nil || res == nil {
		return nil, errors.New("shard: nil graph or result")
	}
	edges := g.Edges()
	if len(res.EdgeComponent) != len(edges) {
		return nil, fmt.Errorf("shard: result labels %d edges, graph has %d",
			len(res.EdgeComponent), len(edges))
	}
	cancel := &par.Canceler{}
	stop := cancel.Watch(ctx)
	defer stop()

	n := int32(g.NumVertices())
	nb := res.NumComponents
	t := res.BlockCutTree()

	// Bucket edge indices by block in one pass. Each bucket stays in
	// ascending edge order, which is exactly the discovery order
	// Result.ComponentSubgraph uses — so the per-block subgraphs below are
	// byte-identical to its output at a total cost of O(n + m) instead of
	// O(m · numBlocks).
	counts := make([]int32, nb+1)
	for _, c := range res.EdgeComponent {
		counts[c+1]++
	}
	for k := 0; k < nb; k++ {
		counts[k+1] += counts[k]
	}
	order := make([]int32, len(edges))
	next := make([]int32, nb)
	copy(next, counts[:nb])
	for i, c := range res.EdgeComponent {
		order[next[c]] = int32(i)
		next[c]++
	}

	shards := make([]*Shard, nb)
	for k := 0; k < nb; k++ {
		faults.Inject(cancel, SiteBuild, 0, k)
		if err := cancel.Err(); err != nil {
			return nil, err
		}
		ids := order[counts[k]:counts[k+1]]
		local := make(map[int32]int32, 8)
		var vm []int32
		subEdges := make([]graph.Edge, 0, len(ids))
		for _, i := range ids {
			e := edges[i]
			for _, v := range [2]int32{e.U, e.V} {
				if _, ok := local[v]; !ok {
					local[v] = int32(len(vm))
					vm = append(vm, v)
				}
			}
			subEdges = append(subEdges, graph.Edge{U: local[e.U], V: local[e.V]})
		}
		em := make([]int32, len(ids))
		copy(em, ids)
		shards[k] = &Shard{
			Block:     int32(k),
			Vertices:  t.VerticesOfBlock(int32(k)),
			Cuts:      t.CutsOfBlock(int32(k)),
			Sub:       &graph.EdgeList{N: int32(len(vm)), Edges: subEdges},
			VertexMap: vm,
			EdgeMap:   em,
		}
	}
	if err := cancel.Err(); err != nil {
		return nil, err
	}

	offsets := make([]int32, n+1)
	for v := int32(0); v < n; v++ {
		offsets[v+1] = offsets[v] + int32(len(t.BlocksOfVertex(v)))
	}
	blocks := make([]int32, 0, offsets[n])
	for v := int32(0); v < n; v++ {
		blocks = append(blocks, t.BlocksOfVertex(v)...)
	}

	return &Set{
		FP:        fp,
		Algorithm: res.Algorithm.String(),
		N:         n,
		NumBlocks: nb,
		Shards:    shards,
		offsets:   offsets,
		blocks:    blocks,
	}, nil
}
