package service

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"bicc"
	"bicc/internal/core"
)

// This file serves the per-block queries: GET /v1/block/{id},
// /v1/vertex/{v}/blocks and /v1/vertex/{v}/articulation. They look the
// decomposition up exactly as /v1/bcc does (planner first, then the result
// cache), so a decomposition /v1/bcc already holds is never computed again.
// The first per-block query for a cache entry builds its block index
// (core.BlockIndex: vertex→blocks, block→vertices and block→edge ids),
// which the cache keeps on the entry; /v1/bcc never builds one. A block's
// subgraph is remapped from the index on request.

// blockQuery is one resolved per-block request.
type blockQuery struct {
	g    *bicc.Graph
	idx  *core.BlockIndex
	meta shardMeta
}

// shardMeta is the response envelope shared by the per-block endpoints.
type shardMeta struct {
	Graph         string `json:"graph"`
	Algorithm     string `json:"algorithm"`
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// resolveBlocks parses the common query parameters (graph, algorithm,
// procs, timeout_ms), looks the decomposition up, and returns its block
// index. It reports ok=false after writing the error response itself; done
// must be called exactly once when ok.
func (s *Server) resolveBlocks(w http.ResponseWriter, r *http.Request) (q *blockQuery, done func(), ok bool) {
	start := time.Now()
	s.stats.ShardQueries.Add(1)
	params := r.URL.Query()
	fp := params.Get("graph")
	if fp == "" {
		writeError(w, http.StatusBadRequest, "missing graph parameter (a fingerprint from /v1/graphs)")
		return nil, nil, false
	}
	algo, err := parseAlgorithm(params.Get("algorithm"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	procs := 0
	if ps := params.Get("procs"); ps != "" {
		if procs, err = strconv.Atoi(ps); err != nil {
			writeError(w, http.StatusBadRequest, "bad procs %q", ps)
			return nil, nil, false
		}
	}
	if err := checkProcs(procs); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	// As on /v1/bcc, a timeout_ms <= 0 means the default.
	timeout := s.cfg.DefaultTimeout
	if ts := params.Get("timeout_ms"); ts != "" {
		ms, err := strconv.ParseInt(ts, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad timeout_ms %q", ts)
			return nil, nil, false
		}
		if ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	pin, okG := s.registry.Acquire(fp)
	if !okG {
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", fp)
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	done = func() {
		cancel()
		pin.Release()
		s.stats.shardLatency.Observe(time.Since(start))
	}

	if algo == bicc.Auto {
		algo, procs, _, _ = s.planDecide(pin.G, procs, false)
	}
	key := resultKey{fp: fp, gen: pin.Info.Generation, algo: algo, procs: procs}
	res, _, err := s.lookup(ctx, key, pin, nil)
	var idx *core.BlockIndex
	if err == nil {
		idx, err = s.cache.BlockIndex(ctx, key, res, func(bctx context.Context) (*core.BlockIndex, error) {
			idx, err := buildBlockIndex(bctx, pin.G, res)
			if err != nil {
				s.stats.ShardBuildFailures.Add(1)
				return nil, err
			}
			s.stats.ShardBuilds.Add(1)
			return idx, nil
		})
	}
	if err != nil {
		done()
		s.writeRunError(w, err, "query")
		return nil, nil, false
	}
	return &blockQuery{g: pin.G, idx: idx, meta: shardMeta{
		Graph:         fp,
		Algorithm:     res.Algorithm,
		Degraded:      res.Degraded,
		DegradedCause: res.DegradedCause,
	}}, done, true
}

// buildBlockIndex indexes the decomposition res describes.
func buildBlockIndex(ctx context.Context, g *bicc.Graph, res *queryResult) (*core.BlockIndex, error) {
	dec, err := res.decomposition(g)
	if err != nil {
		return nil, err
	}
	return core.BuildBlockIndex(ctx, int32(g.NumVertices()), g.Edges(), dec.EdgeComponent, dec.NumComponents)
}

// --- endpoints -------------------------------------------------------------

type vertexBlocksResponse struct {
	shardMeta
	Vertex int32   `json:"vertex"`
	Blocks []int32 `json:"blocks"`
	IsCut  bool    `json:"is_cut"`
}

// handleVertexBlocks serves GET /v1/vertex/{v}/blocks?graph=fp: the ids of
// the biconnected components containing v, read off the block index.
func (s *Server) handleVertexBlocks(w http.ResponseWriter, r *http.Request) {
	q, done, ok := s.resolveBlocks(w, r)
	if !ok {
		return
	}
	defer done()
	v, ok := parseVertex(w, r, q.g)
	if !ok {
		return
	}
	blocks := q.idx.BlocksOfVertex(v)
	writeJSON(w, http.StatusOK, vertexBlocksResponse{
		shardMeta: q.meta,
		Vertex:    v,
		Blocks:    blocks,
		IsCut:     len(blocks) >= 2,
	})
}

type articulationResponse struct {
	shardMeta
	Vertex       int32 `json:"vertex"`
	Articulation bool  `json:"articulation"`
	// NumBlocksContaining is the number of blocks containing the vertex
	// (>= 2 exactly for articulation points, 0 for isolated vertices).
	NumBlocksContaining int `json:"num_blocks_containing"`
}

// handleVertexArticulation serves GET /v1/vertex/{v}/articulation?graph=fp:
// articulation membership read off the block index.
func (s *Server) handleVertexArticulation(w http.ResponseWriter, r *http.Request) {
	q, done, ok := s.resolveBlocks(w, r)
	if !ok {
		return
	}
	defer done()
	v, ok := parseVertex(w, r, q.g)
	if !ok {
		return
	}
	nb := len(q.idx.BlocksOfVertex(v))
	writeJSON(w, http.StatusOK, articulationResponse{
		shardMeta:           q.meta,
		Vertex:              v,
		Articulation:        nb >= 2,
		NumBlocksContaining: nb,
	})
}

type subgraphJSON struct {
	N         int32      `json:"n"`
	Edges     [][2]int32 `json:"edges"`
	VertexMap []int32    `json:"vertex_map"`
	EdgeMap   []int32    `json:"edge_map"`
}

type blockResponse struct {
	shardMeta
	Block       int32         `json:"block"`
	NumBlocks   int           `json:"num_blocks"`
	NumVertices int           `json:"num_vertices"`
	NumEdges    int           `json:"num_edges"`
	Vertices    []int32       `json:"vertices"`
	CutVertices []int32       `json:"cut_vertices"`
	Subgraph    *subgraphJSON `json:"subgraph,omitempty"`
}

// handleBlock serves GET /v1/block/{id}?graph=fp[&include=subgraph]: one
// block's vertex set, boundary cut vertices, and (on request) its remapped
// standalone subgraph, byte for byte what Result.ComponentSubgraph returns.
func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	q, done, ok := s.resolveBlocks(w, r)
	if !ok {
		return
	}
	defer done()
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id64 < 0 {
		writeError(w, http.StatusBadRequest, "bad block id %q", r.PathValue("id"))
		return
	}
	id := int32(id64)
	if int(id) >= q.idx.NumBlocks() {
		writeError(w, http.StatusNotFound, "no block %d (graph has %d)", id, q.idx.NumBlocks())
		return
	}
	vertices, edges := q.idx.VerticesOfBlock(id), q.idx.EdgesOfBlock(id)
	resp := blockResponse{
		shardMeta:   q.meta,
		Block:       id,
		NumBlocks:   q.idx.NumBlocks(),
		NumVertices: len(vertices),
		NumEdges:    len(edges),
		Vertices:    vertices,
		CutVertices: q.idx.CutsOfBlock(id),
	}
	if r.URL.Query().Get("include") == "subgraph" {
		el, vm := core.Subgraph(q.g.Edges(), edges)
		sub := &subgraphJSON{N: el.N, VertexMap: vm, EdgeMap: edges}
		sub.Edges = make([][2]int32, len(el.Edges))
		for i, e := range el.Edges {
			sub.Edges[i] = [2]int32{e.U, e.V}
		}
		resp.Subgraph = sub
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseVertex reads the {v} path value and bounds-checks it against the
// graph, writing the error response itself on failure.
func parseVertex(w http.ResponseWriter, r *http.Request, g *bicc.Graph) (int32, bool) {
	v64, err := strconv.ParseInt(r.PathValue("v"), 10, 32)
	if err != nil || v64 < 0 {
		writeError(w, http.StatusBadRequest, "bad vertex %q", r.PathValue("v"))
		return 0, false
	}
	if v64 >= int64(g.NumVertices()) {
		writeError(w, http.StatusNotFound, "no vertex %d (graph has %d)", v64, g.NumVertices())
		return 0, false
	}
	return int32(v64), true
}
