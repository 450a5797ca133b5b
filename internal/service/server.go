// Package service implements bccd, the biconnected-components query
// service: a long-lived HTTP/JSON front end over the bicc engines that
// amortizes graph loading and computation across many callers.
//
// Three mechanisms protect and accelerate the engine:
//
//   - a content-addressed graph Registry (upload once, query many times,
//     reference-counted LRU eviction under a byte budget);
//   - a single-flight ResultCache keyed by (graph fingerprint, algorithm,
//     procs), so a thundering herd of identical queries runs the engine
//     exactly once;
//   - bounded Admission (worker pool + queue) with per-request context
//     deadlines threaded down into the engines' parallel loops, and 429 +
//     Retry-After once the queue is full.
//
// The service is fault-isolated from the engines: engine panics are
// contained by the parallel runtime and arrive here as typed errors, a
// per-algorithm circuit breaker routes queries away from a parallel engine
// that keeps faulting (open after N consecutive faults, half-open probes
// after a cooldown), degraded results are never cached, and a
// panic-recovery middleware turns handler bugs into 500s instead of killed
// connections. /healthz reports "degraded" while any breaker is open and
// "draining" during graceful shutdown.
//
// Endpoints: POST/GET/DELETE /v1/graphs, POST /v1/graphs/{fp}/edges
// (batched edge mutations), POST /v1/bcc, the per-block queries GET
// /v1/block/{id}, /v1/vertex/{v}/blocks and /v1/vertex/{v}/articulation,
// GET /healthz, GET /metrics.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
	"bicc/internal/plan"
)

// Config tunes a Server. The zero value picks sane defaults for every
// field.
type Config struct {
	// Workers bounds concurrent engine computations; <= 0 means
	// max(GOMAXPROCS/2, 1) so one computation's internal parallelism still
	// has cores to run on.
	Workers int
	// Queue bounds computations waiting for a worker; < 0 means 4*Workers.
	Queue int
	// CacheEntries bounds retained query results; <= 0 means 256.
	CacheEntries int
	// MemBudget bounds the estimated resident bytes of retained query
	// results and their per-block indexes; past it the least recently used
	// results are dropped. <= 0 leaves only the CacheEntries bound.
	MemBudget int64
	// MaxGraphBytes bounds the registry's resident size; <= 0 means 1 GiB.
	// It also bounds one graph, upload or mutation result, by the bytes
	// the registry charges it (graph.ResidentBytes: 24 per edge plus 4 per
	// vertex): past it the request gets 400 before anything is sized by
	// its counts.
	MaxGraphBytes int64
	// MaxBodyBytes bounds the request body of a graph upload, a BCC query
	// and a mutation batch; oversize requests get 413. <= 0 means 256 MiB.
	MaxBodyBytes int64
	// DefaultTimeout applies to queries that set no timeout_ms; <= 0 means
	// 60 s.
	DefaultTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; <= 0 means 1 s.
	RetryAfter time.Duration
	// AllowLocalFiles enables POST /v1/graphs/open, which reads graph files
	// from the server's filesystem. Off by default: a network-facing daemon
	// must not be a file-disclosure oracle.
	AllowLocalFiles bool
	// BreakerThreshold is the number of consecutive engine faults that opens
	// an algorithm's circuit breaker; <= 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe through; <= 0 means 15 s.
	BreakerCooldown time.Duration
	// AttemptTimeout bounds each parallel engine attempt under the fallback
	// policy; <= 0 means half the query deadline is left to the engine's own
	// context (no separate per-attempt bound).
	AttemptTimeout time.Duration
	// NoFallback disables the sequential fallback policy: engine faults are
	// returned to clients as errors instead of degraded results. Breakers
	// still track faults.
	NoFallback bool
	// IncrThreshold is the dirty-region size ratio above which an edge
	// mutation degrades to a full recompute instead of a block-scoped
	// rebuild; <= 0 means incr.DefaultThreshold, >= 1 never degrades on
	// size.
	IncrThreshold float64
	// PlanMode is ignored: every server plans the engine and parallelism
	// of an auto query from the graph's vertex and edge counts.
	//
	// Deprecated: kept so existing callers still compile.
	PlanMode string
	// Compute runs one BCC query. Nil means bicc.BiconnectedComponentsCtx;
	// tests substitute instrumented engines.
	Compute func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Queue < 0 {
		c.Queue = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = 1 << 30
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	if c.Compute == nil {
		c.Compute = func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			return bicc.BiconnectedComponentsCtx(ctx, g, opt)
		}
	}
	return c
}

// Server is the bccd request handler.
type Server struct {
	cfg       Config
	registry  *Registry
	cache     *ResultCache
	admission *Admission
	// metrics is the server's private obs registry; server-scoped counters
	// live here (not on obs.Default) so concurrently-constructed servers —
	// one per test, say — never share instruments. /metrics merges it with
	// the process-wide registry.
	metrics *obs.Registry
	stats   Stats
	// breakers guard the parallel engines; the sequential engine has none —
	// it is the path of last resort. Auto has none either: it resolves to
	// an engine before anything consults a breaker.
	breakers map[string]*Breaker
	draining atomic.Bool
	// dur is the durable state when EnableDurability has been called, nil
	// otherwise; the disabled path costs one atomic load per touch point.
	dur atomic.Pointer[durability]
	// repls is the replication state when EnableReplication has been
	// called, nil otherwise.
	repls atomic.Pointer[replState]
	// writes orders every change to the set of graphs with the WAL. An
	// upload, a delete, a mutation's commit, a standby's apply and the drops
	// of promotion and recovery each hold it from the registry check that
	// decides the change, through its WAL record, to the registry change,
	// with the evictions that change causes. Quorum waits come after.
	writes sync.Mutex
	// incr holds the mutation endpoint's settings and counters; the
	// decompositions it maintains live on the registry entries.
	incr *incrState
	// planner routes Auto queries. New sets it once, before the server
	// handles anything.
	planner *plan.Planner
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     NewResultCache(cfg.CacheEntries, cfg.MemBudget),
		admission: NewAdmission(cfg.Workers, cfg.Queue),
		metrics:   obs.NewRegistry(),
		breakers:  map[string]*Breaker{},
	}
	s.registry = NewRegistry(cfg.MaxGraphBytes, s.evicted)
	s.stats = newStats(s.metrics)
	s.incr = newIncrState(s.metrics, cfg.IncrThreshold)
	for _, e := range engine.Parallel() {
		s.breakers[e.Name] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	// After the breakers: the planner's candidate filter closes over them.
	s.planner = s.newPlanner()
	s.registerLiveMetrics()
	return s
}

// registerLiveMetrics exposes state other components already maintain —
// registry occupancy, admission load, breaker status — as callback-backed
// series sampled at scrape time, so /metrics never keeps a shadow copy.
func (s *Server) registerLiveMetrics() {
	reg := s.metrics
	reg.CounterVec("bicc_graphs_evicted_total",
		"Graphs evicted from the registry to meet the byte budget.").Func(s.registry.Evicted)
	reg.GaugeFunc("bicc_queue_depth",
		"Computations waiting for an admission worker.",
		func() float64 { return float64(s.admission.QueueDepth()) })
	reg.GaugeFunc("bicc_inflight",
		"Computations currently holding an admission worker.",
		func() float64 { return float64(s.admission.Inflight()) })
	reg.GaugeFunc("bicc_cached_results",
		"Completed query results retained by the cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("bicc_result_cache_mem_bytes",
		"Estimated resident bytes of the in-memory result cache.",
		func() float64 { return float64(s.cache.Bytes()) })
	reg.GaugeFunc("bicc_graphs",
		"Graphs resident in the registry.",
		func() float64 { return float64(s.registry.Len()) })
	reg.GaugeFunc("bicc_graph_bytes",
		"Bytes of graph data resident in the registry.",
		func() float64 { return float64(s.registry.Bytes()) })
	opens := reg.CounterVec("bicc_breaker_opens_total",
		"Times an algorithm's circuit breaker has opened.", "algorithm")
	state := reg.GaugeVec("bicc_breaker_state",
		"Circuit breaker state by algorithm: 0 closed, 1 open, 2 half-open.", "algorithm")
	for name, b := range s.breakers {
		opens.Func(b.Opens, name)
		state.Func(func() float64 { return float64(b.State()) }, name)
	}
}

// MetricsHandler serves the Prometheus text exposition of the process-wide
// registry (engine, parallel runtime, and fault-injection metrics) merged
// with this server's request metrics.
func (s *Server) MetricsHandler() http.Handler {
	return obs.Handler(obs.Default(), s.metrics)
}

// Handler returns the HTTP routing for all bccd endpoints, wrapped in the
// drain gate and the panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.HandleFunc("POST /v1/graphs", s.handleUpload)
	mux.HandleFunc("POST /v1/graphs/open", s.handleOpen)
	mux.HandleFunc("GET /v1/graphs", s.handleList)
	mux.HandleFunc("GET /v1/graphs/{fp}", s.handleGetGraph)
	mux.HandleFunc("DELETE /v1/graphs/{fp}", s.handleDeleteGraph)
	mux.HandleFunc("POST /v1/graphs/{fp}/edges", s.handleMutate)
	mux.HandleFunc("POST /v1/graph/{fp}/edges", s.handleMutate) // singular alias
	mux.HandleFunc("POST /v1/bcc", s.handleBCC)
	mux.HandleFunc("GET /v1/block/{id}", s.handleBlock)
	mux.HandleFunc("GET /v1/vertex/{v}/blocks", s.handleVertexBlocks)
	mux.HandleFunc("GET /v1/vertex/{v}/articulation", s.handleVertexArticulation)
	mux.HandleFunc("POST /v1/admin/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/admin/follow", s.handleFollow)
	mux.HandleFunc("POST /v1/admin/scrub", s.handleScrub)
	return PanicRecovery(s.drainGate(mux), func() { s.stats.HandlerPanics.Add(1) })
}

// retryAfterSeconds renders the Retry-After hint with uniform jitter in
// [base/2, 3*base/2]: a burst of rejected clients that all honor the header
// literally must not come back as one synchronized wave.
func (s *Server) retryAfterSeconds() string {
	base := s.cfg.RetryAfter
	j := base/2 + time.Duration(rand.Int64N(int64(base)+1))
	secs := int((j + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// --- helpers ---------------------------------------------------------------

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func parseAlgorithm(s string) (bicc.Algorithm, error) {
	if s == "" {
		return bicc.Auto, nil
	}
	// The library's parser owns the name set (and the error that lists the
	// valid presets), so the service can never drift from new engines.
	return bicc.ParseAlgorithm(s)
}

// checkBudget refuses a graph of n vertices and m edges whose resident
// bytes alone, what the registry charges it (graph.ResidentBytes), exceed
// MaxGraphBytes: registering it would evict every other graph and still
// not fit. It allocates nothing, so callers check before anything is sized
// by n or m.
func (s *Server) checkBudget(n, m int64) error {
	if b := graph.ResidentBytes(n, m); b > s.cfg.MaxGraphBytes {
		return fmt.Errorf("a graph of %d vertices and %d edges holds %d bytes, over -max-graph-bytes %d",
			n, m, b, s.cfg.MaxGraphBytes)
	}
	return nil
}

// readGraph parses a graph from r and checks its size against the budget
// (stage decode), then validates it and builds its CSR in one step (stage
// to-csr, with normalization when asked). With normalize set, self loops
// and duplicate edges are dropped (and counted) instead of rejected;
// DIMACS input is always normalized, uncounted unless normalize is set.
func (s *Server) readGraph(clock *stageClock, r io.Reader, format string, normalize bool) (g *bicc.Graph, loops, dups int, err error) {
	var el *graph.EdgeList
	switch format {
	case "", "text":
		el, err = graph.ReadLenient(r)
	case "dimacs":
		el, err = graph.ReadDIMACS(r)
	case "binary":
		el, err = graph.ReadBinaryLenient(r)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err == nil {
		err = s.checkBudget(int64(el.N), int64(len(el.Edges)))
	}
	if err != nil {
		return nil, 0, 0, err
	}
	clock.lap("decode")
	switch {
	case normalize:
		g, loops, dups, err = bicc.NewGraphNormalized(int(el.N), el.Edges)
	case format == "dimacs":
		g, _, _, err = bicc.NewGraphNormalized(int(el.N), el.Edges)
	default:
		g, err = bicc.AdoptGraph(int(el.N), el.Edges)
	}
	clock.lap("to-csr")
	return g, loops, dups, err
}

// --- graph endpoints -------------------------------------------------------

type graphUploadResponse struct {
	GraphInfo
	Existed bool `json:"existed"`
	Loops   int  `json:"loops_removed,omitempty"`
	Dups    int  `json:"duplicates_removed,omitempty"`
	// Phases splits ElapsedNs into back-to-back stages; they sum to it.
	ElapsedNs int64            `json:"elapsed_ns"`
	Phases    []map[string]any `json:"phases"`
}

// handleUpload ingests a graph from the request body.
// Query parameters: format=text|dimacs|binary (default text),
// normalize=1 to drop self loops / duplicate edges instead of rejecting
// them, name=<label>. The response's phases are the stages decode (body
// read and parse), to-csr (validation and the CSR, built in one step),
// fingerprint, wal (when a durable server appends the graph), register and
// quorum (with wal).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.rejectStandby(w) {
		return
	}
	clock := newStageClock()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	q := r.URL.Query().Get("normalize")
	g, loops, dups, err := s.readGraph(clock, body, r.URL.Query().Get("format"), q == "1" || q == "true")
	if err != nil {
		// A body truncated at the cap mid-record surfaces as a parse error
		// before the reader reports the cap; probing the remaining body
		// distinguishes "over the limit" from a genuinely malformed graph.
		var mbe *http.MaxBytesError
		if _, perr := body.Read(make([]byte, 1)); perr != nil && errors.As(perr, &mbe) {
			err = perr
		}
		if writeTooLarge(w, err, s.cfg.MaxBodyBytes) {
			return
		}
		writeError(w, http.StatusBadRequest, "parsing graph: %v", err)
		return
	}
	s.registerGraph(w, clock, g, r.URL.Query().Get("name"), loops, dups)
}

// writeTooLarge answers 413 if err came from the MaxBytesReader body cap,
// reporting whether it handled the error.
func writeTooLarge(w http.ResponseWriter, err error, limit int64) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	writeError(w, http.StatusRequestEntityTooLarge,
		"request body exceeds %d bytes (raise -max-body-bytes)", limit)
	return true
}

// maxAdminBody caps the JSON body of the requests that carry only a path
// or an address: POST /v1/graphs/open and POST /v1/admin/follow.
const maxAdminBody = 1 << 20

type openRequest struct {
	Path      string `json:"path"`
	Format    string `json:"format"`
	Normalize bool   `json:"normalize"`
	Name      string `json:"name"`
}

// handleOpen loads a graph from a file on the server's filesystem (gated by
// Config.AllowLocalFiles). The format defaults by extension: .bin/.bicc →
// binary, .col/.dimacs → dimacs, anything else text.
func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	if s.rejectStandby(w) {
		return
	}
	if !s.cfg.AllowLocalFiles {
		writeError(w, http.StatusForbidden, "local file loading is disabled (start bccd with -allow-local-files)")
		return
	}
	clock := newStageClock()
	var req openRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxAdminBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	format := req.Format
	if format == "" {
		switch strings.ToLower(path.Ext(req.Path)) {
		case ".bin", ".bicc":
			format = "binary"
		case ".col", ".dimacs":
			format = "dimacs"
		default:
			format = "text"
		}
	}
	f, err := os.Open(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, "opening file: %v", err)
		return
	}
	defer f.Close()
	g, loops, dups, err := s.readGraph(clock, f, format, req.Normalize)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing %s: %v", req.Path, err)
		return
	}
	name := req.Name
	if name == "" {
		name = path.Base(req.Path)
	}
	s.registerGraph(w, clock, g, name, loops, dups)
}

// registerGraph registers g and answers with the entry's info and the
// stages clock has timed.
func (s *Server) registerGraph(w http.ResponseWriter, clock *stageClock, g *bicc.Graph, name string, loops, dups int) {
	info, existed, err := s.addGraph(clock, name, g)
	if err != nil {
		// Not persisted means not acknowledged: the client must not
		// believe in a graph that a restart would forget.
		writeError(w, http.StatusServiceUnavailable, "persisting graph: %v", err)
		return
	}
	s.stats.GraphUploads.Add(1)
	writeJSON(w, http.StatusOK, graphUploadResponse{
		GraphInfo: info, Existed: existed, Loops: loops, Dups: dups,
		ElapsedNs: int64(clock.elapsed()), Phases: clock.phases,
	})
}

// AddGraph registers g in the registry, first appending it to the WAL when
// durability is enabled: a graph is acknowledged only once it is on disk.
// A crash between append and registry insert replays the record at the
// next boot — at-least-once, never lost-after-ack. Used by the upload
// handlers and by the daemon's -load preloading.
func (s *Server) AddGraph(name string, g *bicc.Graph) (fp string, existed bool, err error) {
	info, existed, err := s.addGraph(newStageClock(), name, g)
	return info.Fingerprint, existed, err
}

// addGraph is AddGraph timing its stages on clock: fingerprint, wal (only
// when a durable server appends the graph), register, and quorum (with
// wal). It returns the entry's info as its add left it.
func (s *Server) addGraph(clock *stageClock, name string, g *bicc.Graph) (info GraphInfo, existed bool, err error) {
	fp := Fingerprint(g)
	clock.lap("fingerprint")
	d := s.dur.Load()
	s.writes.Lock()
	_, existed = s.registry.Get(fp)
	if d != nil && !existed {
		if err := d.store.AppendAdd(durable.GraphRecord{FP: fp, Name: name, Graph: g}); err != nil {
			s.writes.Unlock()
			return GraphInfo{}, false, err
		}
		clock.lap("wal")
	}
	info = s.registry.Add(fp, name, g)
	s.writes.Unlock()
	clock.lap("register")
	if d != nil && !existed {
		// Replication quorum: wait (bounded) for a standby to have the
		// record before acking the client. Degrades, never fails — the
		// record is already durable here.
		s.replWaitQuorum()
		clock.lap("quorum")
	}
	return info, existed, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.registry.List()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	info, ok := s.registry.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", fp)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if s.rejectStandby(w) {
		return
	}
	fp := r.PathValue("fp")
	s.writes.Lock()
	if _, ok := s.registry.Get(fp); !ok {
		s.writes.Unlock()
		writeError(w, http.StatusNotFound, "no graph %q", fp)
		return
	}
	// Delete follows the same discipline as add: durable first, then the
	// resident state, so an acknowledged delete survives a crash.
	if d := s.dur.Load(); d != nil {
		if err := d.store.AppendRemove(fp); err != nil {
			s.writes.Unlock()
			writeError(w, http.StatusServiceUnavailable, "persisting removal: %v", err)
			return
		}
	}
	s.drop(fp)
	s.writes.Unlock()
	s.replWaitQuorum()
	w.WriteHeader(http.StatusNoContent)
}

// drop unregisters fp's graph, and with its entry its maintained labels,
// and purges its cached results (all generations, block indexes
// included): generations restart at 0 when the same content is uploaded
// again. The caller holds s.writes. Every removal but an eviction
// (evicted) goes through here.
func (s *Server) drop(fp string) {
	s.registry.Remove(fp)
	s.cache.DropGraph(fp)
}

// evicted is the registry's eviction observer, run inside the s.writes
// hold of the change that caused the eviction. It purges the graph's
// cached results and, when durability is on, journals the removal, so
// that recovery does not bring back a graph the registry let go (a failed
// append, counted in bicc_wal_errors_total, only lets it come back).
func (s *Server) evicted(fp string) {
	if d := s.dur.Load(); d != nil {
		_ = d.store.AppendRemove(fp)
	}
	s.cache.DropGraph(fp)
}

// --- query endpoint --------------------------------------------------------

// maxProcs caps the procs a query may ask for; more answers 400. An engine
// starts its workers up front without polling for cancellation, so an
// absurd value would hold an admission worker long after its client left.
// At 1024, sample sort's procs × procs bucket counts stay at 4 MiB.
const maxProcs = 1024

// checkProcs is the procs check of every query endpoint (/v1/bcc and the
// per-block ones): 0 leaves the choice to the server, and a negative value
// or one above maxProcs answers 400.
func checkProcs(procs int) error {
	if procs < 0 {
		return fmt.Errorf("procs %d is negative (0 leaves the choice to the server)", procs)
	}
	if procs > maxProcs {
		return fmt.Errorf("procs %d exceeds the limit of %d", procs, maxProcs)
	}
	return nil
}

type bccRequest struct {
	Graph     string   `json:"graph"` // fingerprint from /v1/graphs
	Algorithm string   `json:"algorithm,omitempty"`
	Procs     int      `json:"procs,omitempty"`
	TimeoutMs int64    `json:"timeout_ms,omitempty"`
	Include   []string `json:"include,omitempty"` // components, articulation, bridges, blockcut
}

// queryResult is the cacheable part of a BCC response: everything derived
// from the decomposition, computed once and shared by all coalesced and
// cached callers.
type queryResult struct {
	Algorithm          string           `json:"algorithm"`
	NumComponents      int              `json:"num_components"`
	NumArticulation    int              `json:"num_articulation_points"`
	NumBridges         int              `json:"num_bridges"`
	ElapsedNs          int64            `json:"elapsed_ns"`
	Phases             []map[string]any `json:"phases,omitempty"`
	ArticulationPoints []int32          `json:"articulation_points,omitempty"`
	Bridges            []int32          `json:"bridges,omitempty"`
	Components         [][]int32        `json:"components,omitempty"`
	BlockCut           *blockCutJSON    `json:"blockcut,omitempty"`
	// Degraded marks a result produced by the sequential fallback (engine
	// fault or open circuit breaker) instead of the requested parallel
	// engine. Degraded results are correct but are never cached.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Incr marks a result derived from the maintained incremental labels of
	// a mutated graph instead of an engine run. Identical bytes either way;
	// the flag is for observability.
	Incr bool `json:"incr,omitempty"`
	// Trace is the span breakdown of the computation that produced this
	// result (admission wait, engine attempts, pipeline phases). It rides
	// the cache entry but is only serialized for requests asking ?trace=1.
	Trace *obs.TraceExport `json:"trace,omitempty"`
	// edgeComp is the raw per-edge component labeling the views above were
	// derived from. Unexported so it never serializes in responses; views
	// a later query asks for are derived from it.
	edgeComp []int32
}

type blockCutJSON struct {
	NumBlocks   int     `json:"num_blocks"`
	NumNodes    int     `json:"num_nodes"`
	NumEdges    int     `json:"num_tree_edges"`
	CutVertices []int32 `json:"cut_vertices"`
	LeafBlocks  []int32 `json:"leaf_blocks"`
}

// bccResponse embeds queryResult by value: encoding/json cannot populate an
// embedded pointer to an unexported type when tests decode responses.
type bccResponse struct {
	queryResult
	Graph  string `json:"graph"`
	Cached bool   `json:"cached"`
	// Plan echoes the planner's decision for ?explain=1 requests.
	Plan *planExplain `json:"plan,omitempty"`
}

func (s *Server) handleBCC(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Add(1)
	var req bccRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		if writeTooLarge(w, err, s.cfg.MaxBodyBytes) {
			return
		}
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	include := map[string]bool{}
	for _, inc := range req.Include {
		switch inc {
		case "components", "articulation", "bridges", "blockcut":
			include[inc] = true
		default:
			writeError(w, http.StatusBadRequest, "unknown include %q", inc)
			return
		}
	}
	procs := req.Procs
	if err := checkProcs(procs); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Graph pointer and generation come from one registry transaction: a
	// concurrent mutation must never pair the old edge list with the new
	// generation in a cache key.
	pin, ok := s.registry.Acquire(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", req.Graph)
		return
	}
	defer pin.Release()

	// Auto queries resolve to a concrete (engine, procs) pair before the
	// cache lookup: the planner decides here, exactly once per request, so
	// the cache key, the dispatched engine, and the explain echo can never
	// disagree — and planned queries share cache entries with explicit
	// requests for the same engine.
	eq := r.URL.Query().Get("explain")
	explain := eq == "1" || eq == "true"
	runAlgo, runProcs := algo, procs
	var planEcho *planExplain
	if algo == bicc.Auto {
		a, p, f, d := s.planDecide(pin.G, procs, explain)
		runAlgo, runProcs = a, p
		if explain {
			planEcho = &planExplain{Engine: a.String(), Procs: p, Features: &f, Decision: &d}
		}
	} else if explain {
		planEcho = &planExplain{Engine: algo.String(), Procs: par.Procs(procs)}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	key := resultKey{fp: req.Graph, gen: pin.Info.Generation, algo: runAlgo, procs: runProcs}
	res, outcome, err := s.lookup(ctx, key, pin, include)
	if err != nil {
		s.writeRunError(w, err, "query")
		return
	}
	full := *res
	if added, err := s.fillIncludes(&full, pin.G, include); err != nil {
		writeError(w, http.StatusInternalServerError, "deriving include views: %v", err)
		return
	} else if added {
		s.cache.AddViews(key, res, &full)
	}
	resp := bccResponse{queryResult: full, Graph: req.Graph, Cached: outcome == OutcomeHit, Plan: planEcho}
	if q := r.URL.Query().Get("trace"); q != "1" && q != "true" {
		// The copy above leaves the cached entry's trace intact.
		resp.Trace = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookup returns the decomposition of pin's graph cached under key,
// computing it on a miss, and counts how the cache served the call. A
// mutated graph's maintained labels, which the pin carries, answer instead
// of an engine run.
func (s *Server) lookup(ctx context.Context, key resultKey, pin *Pin, include map[string]bool) (*queryResult, Outcome, error) {
	res, err, outcome := s.cache.Do(ctx, key, func(cctx context.Context) (*queryResult, error) {
		if qr, ok := s.incrServe(pin, key.algo, include); ok {
			return qr, nil
		}
		return s.compute(cctx, pin.G, key.algo, key.procs, include)
	})
	switch outcome {
	case OutcomeHit:
		s.stats.CacheHits.Add(1)
	case OutcomeMiss:
		s.stats.CacheMisses.Add(1)
	case OutcomeCoalesced:
		s.stats.Coalesced.Add(1)
	}
	return res, outcome, err
}

// writeRunError answers a request whose engine run (or per-block index
// build) failed. A full admission queue gets 429 and an expired deadline
// 503, both with a jittered Retry-After and counted; anything else is a
// 500. what names the request in the 503 message.
func (s *Server) writeRunError(w http.ResponseWriter, err error, what string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.stats.Rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.stats.Canceled.Add(1)
		// The deadline expired before the engine finished, typically
		// because the box is saturated.
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable, "%s did not finish in time: %v", what, err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// fillIncludes completes a copy of a cached result with any include view
// the entry does not carry, reporting whether it derived any. The result
// cache is keyed by (graph, generation, algorithm, procs) — not by the
// include set — so a hit may have been created by a query that asked for
// fewer views, or by a per-block query, which asks for none. Deriving the
// missing views from the entry's edge labeling keeps answers independent
// of which query populated the cache. Only the copy is written; the caller
// hands it to ResultCache.AddViews to keep the views.
func (s *Server) fillIncludes(qr *queryResult, g *bicc.Graph, include map[string]bool) (bool, error) {
	missing := (include["articulation"] && qr.ArticulationPoints == nil) ||
		(include["bridges"] && qr.Bridges == nil) ||
		(include["components"] && qr.Components == nil) ||
		(include["blockcut"] && qr.BlockCut == nil)
	if !missing {
		return false, nil
	}
	res, err := qr.decomposition(g)
	if err != nil {
		return false, err
	}
	addViews(qr, res, include)
	return true, nil
}

// decomposition rebuilds the Result qr describes from its edge labeling; g
// must be the graph qr was computed on.
func (qr *queryResult) decomposition(g *bicc.Graph) (*bicc.Result, error) {
	if qr.edgeComp == nil {
		return nil, fmt.Errorf("result carries no edge labeling")
	}
	algo, err := bicc.ParseAlgorithm(qr.Algorithm)
	if err != nil {
		return nil, err
	}
	return bicc.ReconstructResult(g, algo, qr.edgeComp)
}

// newQueryResult builds the cacheable part of a response from a
// decomposition: the aggregate counts and every view include asks for.
func newQueryResult(res *bicc.Result, include map[string]bool) *queryResult {
	cuts, bridges := res.ArticulationPoints(), res.Bridges()
	qr := &queryResult{
		Algorithm:       res.Algorithm.String(),
		NumComponents:   res.NumComponents,
		NumArticulation: len(cuts),
		NumBridges:      len(bridges),
		edgeComp:        res.EdgeComponent,
	}
	if include["articulation"] {
		qr.ArticulationPoints = cuts
	}
	if include["bridges"] {
		qr.Bridges = bridges
	}
	addViews(qr, res, include)
	return qr
}

// addViews sets every view include asks for that qr does not carry yet,
// deriving it from res, the decomposition qr describes.
func addViews(qr *queryResult, res *bicc.Result, include map[string]bool) {
	if include["articulation"] && qr.ArticulationPoints == nil {
		qr.ArticulationPoints = res.ArticulationPoints()
	}
	if include["bridges"] && qr.Bridges == nil {
		qr.Bridges = res.Bridges()
	}
	if include["components"] && qr.Components == nil {
		qr.Components = res.Components()
	}
	if include["blockcut"] && qr.BlockCut == nil {
		t := res.BlockCutTree()
		qr.BlockCut = &blockCutJSON{
			NumBlocks:   t.NumBlocks(),
			NumNodes:    t.NumNodes(),
			NumEdges:    t.NumTreeEdges(),
			CutVertices: t.CutVertices(),
			LeafBlocks:  t.LeafBlocks(),
		}
	}
}

// runEngine admits and runs one engine computation under the circuit
// breaker and the sequential-fallback policy, recording the fault-isolation
// stats. It is the shared trunk of query computation and the mutation
// path: both must see identical breaker, fallback, and accounting
// behaviour. routedCause is non-empty when an open breaker redirected the
// request to the sequential engine.
func (s *Server) runEngine(ctx context.Context, g *bicc.Graph, algo bicc.Algorithm, procs int) (res *bicc.Result, elapsed time.Duration, routedCause string, err error) {
	// Auto still arriving here came from an internal caller — the
	// incremental seeding and degrade-to-full paths — not a query, which
	// resolves before its cache lookup. Plan it the same way, from g's
	// counts.
	if algo == bicc.Auto {
		algo, procs, _, _ = s.planDecide(g, procs, false)
	}
	_, adm := obs.StartSpan(ctx, "admission")
	release, err := s.admission.Acquire(ctx)
	adm.End()
	if err != nil {
		return nil, 0, "", err
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, 0, "", err
	}
	s.stats.Computations.Add(1)

	runAlgo := algo
	br := s.breakers[algo.String()]
	if br != nil && !br.Allow() {
		// The breaker is open: don't burn workers on a path that keeps
		// faulting, answer from the sequential engine instead.
		s.stats.BreakerRouted.Add(1)
		runAlgo = bicc.Sequential
		routedCause = fmt.Sprintf("circuit breaker open for %s", algo)
		br = nil // a routed-around request carries no signal for the breaker
	}
	opt := &bicc.Options{Algorithm: runAlgo, Procs: procs}
	if !s.cfg.NoFallback {
		opt.Fallback = bicc.FallbackSequential
		opt.AttemptTimeout = s.cfg.AttemptTimeout
	}

	start := time.Now()
	res, err = s.safeCompute(ctx, g, opt)
	elapsed = time.Since(start)

	// Breaker accounting: caller-side cancellation says nothing about engine
	// health and is not recorded; everything else (clean, error, panic,
	// degraded fallback) is.
	if br != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		br.Record(err != nil || (res != nil && res.Degraded))
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		s.stats.EnginePanics.Add(1)
	}
	if err != nil {
		return nil, elapsed, routedCause, err
	}
	if res.Degraded {
		s.stats.Fallbacks.Add(1)
		if errors.As(res.DegradedCause, &pe) {
			s.stats.EnginePanics.Add(1)
		}
	}
	if h := s.stats.perAlgorithm[res.Algorithm.String()]; h != nil {
		h.Observe(elapsed)
	}
	return res, elapsed, routedCause, nil
}

// compute admits and runs one engine computation, then derives every
// cacheable view the include set asks for. It is the fault-isolation
// boundary of the service: the circuit breaker decides whether the parallel
// path may be used at all, the engine runs under the sequential-fallback
// policy, and outcomes feed the breaker and the fault counters.
func (s *Server) compute(ctx context.Context, g *bicc.Graph, algo bicc.Algorithm, procs int, include map[string]bool) (*queryResult, error) {
	// Every computation is traced: admission wait, each engine attempt, and
	// the pipeline phases inside it. The trace rides the cached result and
	// is serialized only for ?trace=1 requests.
	tr := obs.NewTrace()
	ctx, root := obs.StartSpan(obs.ContextWithTrace(ctx, tr), "bcc")
	defer root.End()

	res, elapsed, routedCause, err := s.runEngine(ctx, g, algo, procs)
	if err != nil {
		return nil, err
	}
	out := newQueryResult(res, include)
	out.ElapsedNs = int64(elapsed)
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, map[string]any{"name": ph.Name, "ns": int64(ph.Duration)})
	}
	if res.Degraded {
		out.Degraded = true
		if res.DegradedCause != nil {
			out.DegradedCause = res.DegradedCause.Error()
		}
	}
	if routedCause != "" {
		out.Degraded = true
		if out.DegradedCause == "" {
			out.DegradedCause = routedCause
		}
	}
	root.SetLabel("algorithm", res.Algorithm.String())
	if out.Degraded {
		root.SetLabel("degraded", "true")
	}
	root.End()
	out.Trace = tr.Export()
	return out, nil
}

// safeCompute invokes the configured engine with a recover of last resort:
// compute runs on a cache goroutine, where an escaped panic would kill the
// whole daemon. The parallel runtime already contains engine panics; this
// guards Compute implementations substituted by tests or future embedders.
func (s *Server) safeCompute(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (res *bicc.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, par.AsPanicError(-1, v)
		}
	}()
	return s.cfg.Compute(ctx, g, opt)
}

// --- health ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	breakers := map[string]string{}
	for name, b := range s.breakers {
		st := b.State()
		breakers[name] = st.String()
		if st != BreakerClosed {
			// An open (or probing) breaker means some parallel engine keeps
			// faulting and its queries are served sequentially: alive, but
			// slower than advertised.
			status = "degraded"
		}
	}
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status":   status,
		"workers":  s.admission.Workers(),
		"breakers": breakers,
	}
	// Integrity failures are the one thing that flips readiness to 503:
	// while the scrubber holds damaged files that no compaction has
	// retired yet, the local durable state cannot be fully trusted and an
	// operator (or the router) should look at this node.
	code := http.StatusOK
	if d := s.dur.Load(); d != nil {
		if damaged := d.store.ScrubStats().Damaged; len(damaged) > 0 {
			status, code = "unhealthy", http.StatusServiceUnavailable
			body["damaged"] = damaged
		}
	}
	body["status"] = status
	if rs := s.repls.Load(); rs != nil {
		switch rs.role.Load() {
		case rolePrimary:
			body["role"] = "primary"
		case roleStandby:
			body["role"] = "standby"
		}
		body["applied_seq"] = rs.appliedSeq()
	}
	writeJSON(w, code, body)
}
