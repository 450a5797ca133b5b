package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/graph"
	"bicc/internal/incr"
	"bicc/internal/obs"
)

// This file is the service face of the incremental-BCC subsystem: the
// mutation endpoint (POST /v1/graphs/{fp}/edges), the maintained
// decomposition it feeds, and the serve-from-state fast path that answers
// queries from maintained labels without an engine run. The decomposition
// and its labels live on the graph's registry entry (regEntry) and go
// with it.
//
// Identity model: a graph's fingerprint is its STABLE id — the content
// fingerprint at upload time. Mutations keep the id, advance a generation
// counter, and track the current content fingerprint separately. Every
// result cache key carries the generation, so answers computed against
// different edge lists under one id can never be confused.
//
// Mutation flow (nothing is written before the commit, and a commit that
// reaches the WAL always takes effect):
//
//  1. validate the batch against the maintained state — client errors are
//     rejected here;
//  2. apply through the incr planner (absorb / block-scoped rebuild / full
//     by size threshold); any runtime failure — injected fault, engine
//     error, cancellation — degrades to a full recompute of the final
//     graph, and if even that fails the maintained labels are dropped so
//     queries recompute on demand;
//  3. commit under Server.writes: if the pinned entry is still registered,
//     append the delta record to the WAL and fsync (when durability is on),
//     then swap the graph and its labels into the entry;
//  4. wait for the standby quorum, then answer.
type incrState struct {
	threshold float64

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

func newIncrState(reg *obs.Registry, threshold float64) *incrState {
	st := &incrState{
		threshold: threshold,
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

// incrServe is the query fast path: derive the cacheable query result from
// the maintained labels the pin carries instead of running an engine,
// labeled with algo, the engine its cache key names. ok=false (no labels,
// or a reconstruction failure) means the caller must run an engine.
func (s *Server) incrServe(pin *Pin, algo bicc.Algorithm, include map[string]bool) (*queryResult, bool) {
	if pin.Labels == nil {
		return nil, false
	}
	start := time.Now()
	res, err := bicc.ReconstructResult(pin.G, algo, pin.Labels)
	if err != nil {
		return nil, false
	}
	s.incr.served.Inc()
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

// parseDeltas maps a request's deltas onto graph.Delta, the one delta type
// from here to the WAL, refusing an op other than insert and delete.
func parseDeltas(in []mutationDelta) ([]graph.Delta, error) {
	out := make([]graph.Delta, len(in))
	for i, d := range in {
		switch d.Op {
		case "insert":
		case "delete":
			out[i].Del = true
		default:
			return nil, fmt.Errorf("delta %d: unknown op %q", i, d.Op)
		}
		out[i].U, out[i].V = d.U, d.V
	}
	return out, nil
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
// mutation of a graph only), validate, fingerprint, apply, wal (durable
// servers only), publish and quorum (durable servers only).
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
	deltas, err := parseDeltas(req.Deltas)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	pin, ok := s.registry.Acquire(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", fp)
		return
	}
	defer pin.Release()
	// One mutation at a time per entry, so generations are strictly
	// monotonic.
	pin.Lock()
	defer pin.Unlock()
	e := pin.e
	clock.lap("decode")

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()

	run := func(rctx context.Context, rg *bicc.Graph) (*bicc.Result, error) {
		res, _, _, err := s.runEngine(rctx, rg, bicc.Auto, 0)
		return res, err
	}

	// Ensure maintained state for the current edge list. The first mutation
	// of an entry pays one engine run to seed the canonical labels, as does
	// the first after a recovered or replicated record swapped its graph or
	// a commit failed at the WAL.
	if e.st == nil || e.st.Graph() != pin.G {
		res, err := run(ctx, pin.G)
		if err != nil {
			s.writeRunError(w, err, "mutation")
			return
		}
		st, serr := incr.NewState(pin.G, res)
		if serr != nil {
			writeError(w, http.StatusInternalServerError, "seeding incremental state: %v", serr)
			return
		}
		e.st = st
		clock.lap("seed")
	}

	// A batch that grows the graph past the budget is refused by its counts,
	// before anything is sized by its vertex count. The batch's rules keep
	// its graph simple, so it is not checked again.
	batch, err := e.st.Prepare(deltas)
	var newGraph *bicc.Graph
	if err == nil {
		newGraph = batch.Graph()
		err = s.checkBudget(int64(newGraph.NumVertices()), int64(newGraph.NumEdges()))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	clock.lap("validate")
	postFP := Fingerprint(newGraph)
	newGen := pin.Info.Generation + 1
	clock.lap("fingerprint")

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
				ferr = serr
			}
		}
		if ferr != nil {
			// Even the full recompute failed: drop the maintained labels;
			// queries recompute on demand. The mutation still commits.
			e.st = nil
			s.incr.stateDrops.Inc()
		}
		stats = &incr.ApplyStats{Deltas: len(deltas), Mode: incr.ModeFull}
		for _, dl := range deltas {
			if dl.Del {
				stats.Deletes++
			} else {
				stats.Inserts++
			}
		}
		if e.st != nil {
			stats.NumComponents = e.st.NumComponents()
		}
	}
	var labels []int32
	if e.st != nil {
		labels = e.st.Labels()
	}
	clock.lap("apply")

	// Commit: unless a delete took the pinned entry meanwhile (the delete
	// won), fsync the delta record and swap the new graph and its labels
	// in, in one Server.writes hold, so a delta in the WAL always takes
	// effect. Then drop every derived result for this id.
	s.writes.Lock()
	if !pin.Registered() {
		s.writes.Unlock()
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", fp)
		return
	}
	d := s.dur.Load()
	if d != nil {
		rec := durable.DeltaRecord{ID: fp, Gen: newGen, NewN: int32(newGraph.NumVertices()), PostFP: postFP, Ops: deltas}
		if err := d.store.AppendDelta(rec, newGraph); err != nil {
			s.writes.Unlock()
			writeError(w, http.StatusServiceUnavailable, "persisting mutation: %v", err)
			return
		}
		clock.lap("wal")
	}
	pin.Replace(newGraph, newGen, postFP, labels)
	s.writes.Unlock()
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
	if d != nil {
		s.replWaitQuorum()
		clock.lap("quorum")
	}
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
