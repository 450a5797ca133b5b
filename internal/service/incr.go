package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/incr"
	"bicc/internal/obs"
)

// This file is the service face of the incremental-BCC subsystem: the
// mutation endpoint (POST /v1/graphs/{fp}/edges), the per-graph maintained
// decomposition it feeds, and the serve-from-state fast path that answers
// queries from maintained labels without an engine run.
//
// Identity model: a graph's fingerprint is its STABLE id — the content
// fingerprint at upload time. Mutations keep the id, advance a generation
// counter, and track the current content fingerprint separately. Every
// result cache key carries the generation, so answers computed against
// different edge lists under one id can never be confused.
//
// Mutation flow (fsync-before-ack, degrade-never-fail after the ack):
//
//  1. validate the batch against the maintained state — client errors are
//     rejected here, before anything is written;
//  2. append the delta record to the WAL and fsync (when durability is on):
//     from this point the mutation is acknowledged and MUST take effect;
//  3. apply through the incr planner (absorb / block-scoped rebuild / full
//     by size threshold); any runtime failure — injected fault, engine
//     error, cancellation — degrades to a full recompute of the final
//     graph, and if even that fails the maintained labels are dropped so
//     queries recompute on demand. The registry swap and cache
//     invalidation happen regardless.
type incrState struct {
	threshold float64

	mu     sync.Mutex
	graphs map[string]*incrGraph

	batches     *obs.Counter
	deltas      *obs.Counter
	inserts     *obs.Counter
	deletes     *obs.Counter
	absorbed    *obs.Counter
	dirtied     *obs.Counter
	served      *obs.Counter
	invalidated *obs.Counter
	stateDrops  *obs.Counter
	modes       map[string]*obs.Counter
	latency     map[string]*obs.Histogram
}

// incrGraph is one graph id's incremental machinery. mu serializes
// mutations (held across engine runs); pub guards the published label
// snapshot read by the query fast path, held only for pointer swaps so
// queries never wait on a mutation in progress.
type incrGraph struct {
	mu sync.Mutex
	// st is the maintained decomposition, touched only under mu. It is
	// never shared with readers — the fast path reads the published copy.
	// stG is the exact graph pointer st describes: if the registry holds a
	// different pointer under this id (evicted and re-added, say), the
	// state is stale and must be reseeded.
	st  *incr.State
	stG *bicc.Graph

	pub     sync.Mutex
	g       *bicc.Graph // the exact graph pointer labels describe
	labels  []int32     // canonical per-edge block labels; immutable once published
	numComp int
}

func newIncrState(reg *obs.Registry, threshold float64) *incrState {
	st := &incrState{
		threshold: threshold,
		graphs:    map[string]*incrGraph{},
		batches: reg.Counter("bicc_incr_batches_total",
			"Mutation batches acknowledged."),
		deltas: reg.Counter("bicc_incr_deltas_total",
			"Edge deltas applied across all batches."),
		inserts: reg.Counter("bicc_incr_inserts_total",
			"Edge insertions applied."),
		deletes: reg.Counter("bicc_incr_deletes_total",
			"Edge deletions applied."),
		absorbed: reg.Counter("bicc_incr_absorbed_total",
			"Inserts absorbed into their block without an engine run."),
		dirtied: reg.Counter("bicc_incr_blocks_dirtied_total",
			"Blocks invalidated by structural deltas."),
		served: reg.Counter("bicc_incr_served_total",
			"Queries answered from maintained incremental state."),
		invalidated: reg.Counter("bicc_incr_invalidated_results_total",
			"Cached results dropped by mutations."),
		stateDrops: reg.Counter("bicc_incr_state_drops_total",
			"Maintained states dropped after a failed degraded recompute."),
		modes:   map[string]*obs.Counter{},
		latency: map[string]*obs.Histogram{},
	}
	applies := reg.CounterVec("bicc_incr_applies_total",
		"Mutation batches by apply path.", "mode")
	lat := reg.HistogramVec("bicc_incr_apply_seconds",
		"End-to-end mutation apply latency by path (incremental vs full).", "mode")
	for _, m := range []incr.Mode{incr.ModeAbsorb, incr.ModeRebuild, incr.ModeFull} {
		st.modes[m.String()] = applies.With(m.String())
		st.latency[m.String()] = lat.With(m.String())
	}
	return st
}

// graph returns (creating if needed) the per-graph machinery for fp.
func (st *incrState) graph(fp string) *incrGraph {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.graphs[fp]
	if !ok {
		e = &incrGraph{}
		st.graphs[fp] = e
	}
	return e
}

// peek returns the per-graph machinery without creating it.
func (st *incrState) peek(fp string) *incrGraph {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.graphs[fp]
}

// drop clears all incremental state for fp — the graph-delete path. A
// deleted-then-reuploaded id starts clean at generation 0 with no label
// snapshot left behind.
func (st *incrState) drop(fp string) {
	st.mu.Lock()
	delete(st.graphs, fp)
	st.mu.Unlock()
}

// publishedLabels returns the label snapshot for fp if it describes exactly
// the graph pointer g. Pointer identity is the correctness argument: labels
// and graph are published together under pub, so a match proves the labels
// were computed for this exact edge list.
func (st *incrState) publishedLabels(fp string, g *bicc.Graph) ([]int32, bool) {
	e := st.peek(fp)
	if e == nil {
		return nil, false
	}
	e.pub.Lock()
	defer e.pub.Unlock()
	if e.g != g || e.labels == nil {
		return nil, false
	}
	return e.labels, true
}

// incrReconstruct builds a full Result from maintained labels for the exact
// acquired graph pointer, with the algorithm name a scratch run would
// report. ok=false (state absent, stale, or reconstruction failure) means
// the caller must run an engine.
func (s *Server) incrReconstruct(fp string, g *bicc.Graph, algo bicc.Algorithm, procs int) (*bicc.Result, bool) {
	labels, ok := s.incr.publishedLabels(fp, g)
	if !ok {
		return nil, false
	}
	run := bicc.ResolveAlgorithm(g, algo, procs)
	res, err := bicc.ReconstructResult(g, run, labels)
	if err != nil {
		return nil, false
	}
	s.incr.served.Inc()
	return res, true
}

// incrServe is the query fast path: derive the cacheable query result from
// maintained labels instead of running an engine.
func (s *Server) incrServe(fp string, g *bicc.Graph, algo bicc.Algorithm, procs int, include map[string]bool) (*queryResult, bool) {
	start := time.Now()
	res, ok := s.incrReconstruct(fp, g, algo, procs)
	if !ok {
		return nil, false
	}
	out := newQueryResult(res, include)
	out.Incr = true
	out.ElapsedNs = int64(time.Since(start))
	out.Phases = []map[string]any{{"name": "incr-serve", "ns": out.ElapsedNs}}
	return out, true
}

// --- mutation endpoint -------------------------------------------------------

type mutationDelta struct {
	Op string `json:"op"` // "insert" or "delete"
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

type mutateRequest struct {
	Deltas []mutationDelta `json:"deltas"`
}

type mutateResponse struct {
	Graph         string  `json:"graph"`
	Generation    uint64  `json:"generation"`
	ContentFP     string  `json:"content_fingerprint"`
	Mode          string  `json:"mode"`
	Deltas        int     `json:"deltas"`
	Inserts       int     `json:"inserts"`
	Deletes       int     `json:"deletes"`
	Absorbed      int     `json:"absorbed"`
	DirtyBlocks   int     `json:"dirty_blocks"`
	RegionEdges   int     `json:"region_edges"`
	RegionRatio   float64 `json:"region_ratio"`
	NumComponents int     `json:"num_components,omitempty"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	Invalidated   int     `json:"invalidated_results"`
	Degraded      bool    `json:"degraded,omitempty"`
	DegradedCause string  `json:"degraded_cause,omitempty"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	// Phases splits ElapsedNs into back-to-back stages; they sum to it.
	Phases []map[string]any `json:"phases"`
}

// stageClock splits a request's wall time into back-to-back stages: each
// lap closes the stage that began at the previous lap, so the stage times
// sum exactly to the elapsed time.
type stageClock struct {
	start, last time.Time
	phases      []map[string]any
}

func newStageClock() *stageClock {
	now := time.Now()
	return &stageClock{start: now, last: now}
}

func (c *stageClock) lap(name string) {
	now := time.Now()
	c.phases = append(c.phases, map[string]any{"name": name, "ns": int64(now.Sub(c.last))})
	c.last = now
}

func (c *stageClock) elapsed() time.Duration { return c.last.Sub(c.start) }

// handleMutate serves POST /v1/graphs/{fp}/edges: a batched edge mutation
// against a registered graph. Batches are sequential: an insert appends to
// the edge list, a delete removes an edge preserving the order of the rest,
// delete-then-reinsert is legal (the edge moves to the end), endpoints past
// the vertex count grow the graph. The response's phases are the stages
// decode (including the wait for the graph's mutation lock), seed (first
// mutation of a graph only), validate, build, fingerprint, wal and quorum
// (durable servers only), apply and publish.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.rejectStandby(w) {
		return
	}
	clock := newStageClock()
	fp := r.PathValue("fp")
	var req mutateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		if writeTooLarge(w, err, s.cfg.MaxBodyBytes) {
			return
		}
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if len(req.Deltas) == 0 {
		writeError(w, http.StatusBadRequest, "empty delta batch")
		return
	}
	deltas := make([]incr.Delta, len(req.Deltas))
	for i, d := range req.Deltas {
		op, err := incr.ParseOp(d.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, "delta %d: %v", i, err)
			return
		}
		if op == incr.OpInsert {
			// An insert past the last vertex grows the graph to its endpoint.
			if err := s.checkVertices(int64(max(d.U, d.V)) + 1); err != nil {
				writeError(w, http.StatusBadRequest, "delta %d: %v", i, err)
				return
			}
		}
		deltas[i] = incr.Delta{Op: op, U: d.U, V: d.V}
	}

	// Per-graph serialization: one mutation at a time per id; the registry
	// swap and state publication happen under this lock, so generations are
	// strictly monotonic.
	e := s.incr.graph(fp)
	e.mu.Lock()
	defer e.mu.Unlock()

	g, info, ok := s.registry.AcquireInfo(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", fp)
		return
	}
	defer s.registry.Release(fp)
	clock.lap("decode")

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()

	run := func(rctx context.Context, rg *bicc.Graph) (*bicc.Result, error) {
		res, _, _, err := s.runEngine(rctx, rg, bicc.Auto, 0)
		return res, err
	}

	// Ensure maintained state for the current edge list. First mutation on
	// a graph (or first after recovery) pays one engine run to seed the
	// canonical labels; errors here are still pre-ack and safe to reject.
	if e.st == nil || e.stG != g {
		res, err := run(ctx, g)
		if err != nil {
			s.writeRunError(w, err, "mutation")
			return
		}
		st, serr := incr.NewState(g, res)
		if serr != nil {
			writeError(w, http.StatusInternalServerError, "seeding incremental state: %v", serr)
			return
		}
		e.st, e.stG = st, g
		clock.lap("seed")
	}

	// Validate before writing anything: client errors never reach the WAL.
	batch, err := e.st.Prepare(deltas)
	if err != nil {
		var de *incr.DeltaError
		if errors.As(err, &de) {
			writeError(w, http.StatusBadRequest, "%v", de)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	clock.lap("validate")
	newGraph, err := bicc.NewGraph(int(batch.N), batch.Edges)
	if err != nil {
		writeError(w, http.StatusBadRequest, "resulting graph invalid: %v", err)
		return
	}
	clock.lap("build")
	postFP := Fingerprint(newGraph)
	newGen := info.Generation + 1
	clock.lap("fingerprint")

	// Durable-first: fsync the delta record before acknowledging. From here
	// on the mutation must take effect — runtime failures degrade, they do
	// not reject.
	if d := s.dur.Load(); d != nil {
		ops := make([]durable.DeltaOp, len(deltas))
		for i, dl := range deltas {
			ops[i] = durable.DeltaOp{Del: dl.Op == incr.OpDelete, U: dl.U, V: dl.V}
		}
		rec := durable.DeltaRecord{ID: fp, Gen: newGen, NewN: batch.N, PostFP: postFP, Ops: ops}
		if err := d.store.AppendDelta(rec, newGraph); err != nil {
			writeError(w, http.StatusServiceUnavailable, "persisting mutation: %v", err)
			return
		}
		clock.lap("wal")
		s.replWaitQuorum()
		clock.lap("quorum")
	}

	stats, aerr := e.st.Apply(ctx, batch, incr.Config{Threshold: s.incr.threshold}, run)
	degradedCause := ""
	if aerr != nil {
		// Apply is atomic, so the state still describes the pre-batch graph.
		// Degrade to a full recompute of the final edge list on a fresh
		// context (the failure may have been a cancellation).
		degradedCause = aerr.Error()
		fctx, fcancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DefaultTimeout)
		res, ferr := run(fctx, newGraph)
		fcancel()
		if ferr == nil {
			if st, serr := incr.NewState(newGraph, res); serr == nil {
				e.st = st
			} else {
				e.st, ferr = nil, serr
			}
		}
		if ferr != nil {
			// Even the full recompute failed: drop the maintained labels;
			// queries recompute on demand. The mutation itself still
			// commits below — it was acknowledged at the WAL.
			e.st, e.stG = nil, nil
			s.incr.stateDrops.Inc()
		}
		stats = &incr.ApplyStats{Deltas: len(deltas), Mode: incr.ModeFull}
		for _, dl := range deltas {
			if dl.Op == incr.OpInsert {
				stats.Inserts++
			} else {
				stats.Deletes++
			}
		}
		if e.st != nil {
			stats.NumComponents = e.st.NumComponents()
		}
	}
	clock.lap("apply")

	// Commit: swap the registry entry, publish the new label snapshot, then
	// invalidate every derived result for this id.
	s.registry.Replace(fp, newGraph, newGen, postFP)
	if e.st != nil {
		e.stG = newGraph
	}
	e.pub.Lock()
	e.g = newGraph
	if e.st != nil {
		e.labels = e.st.Labels()
		e.numComp = e.st.NumComponents()
	} else {
		e.labels, e.numComp = nil, 0
	}
	e.pub.Unlock()
	dropped := s.cache.DropGraph(fp)

	st := s.incr
	st.batches.Inc()
	st.deltas.Add(int64(stats.Deltas))
	st.inserts.Add(int64(stats.Inserts))
	st.deletes.Add(int64(stats.Deletes))
	st.absorbed.Add(int64(stats.Absorbed))
	st.dirtied.Add(int64(stats.DirtyBlocks))
	st.invalidated.Add(int64(dropped))
	mode := stats.Mode.String()
	if c := st.modes[mode]; c != nil {
		c.Inc()
	}
	clock.lap("publish")
	elapsed := clock.elapsed()
	if h := st.latency[mode]; h != nil {
		h.Observe(elapsed)
	}

	writeJSON(w, http.StatusOK, mutateResponse{
		Graph:         fp,
		Generation:    newGen,
		ContentFP:     postFP,
		Mode:          mode,
		Deltas:        stats.Deltas,
		Inserts:       stats.Inserts,
		Deletes:       stats.Deletes,
		Absorbed:      stats.Absorbed,
		DirtyBlocks:   stats.DirtyBlocks,
		RegionEdges:   stats.RegionEdges,
		RegionRatio:   stats.RegionRatio,
		NumComponents: stats.NumComponents,
		Vertices:      newGraph.NumVertices(),
		Edges:         newGraph.NumEdges(),
		Invalidated:   dropped,
		Degraded:      degradedCause != "",
		DegradedCause: degradedCause,
		ElapsedNs:     int64(elapsed),
		Phases:        clock.phases,
	})
}
