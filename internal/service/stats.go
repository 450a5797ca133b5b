package service

import (
	"bicc/internal/durable"
	"bicc/internal/engine"
	"bicc/internal/obs"
	"bicc/internal/plan"
)

// Histogram is the service's request-latency histogram, now provided by the
// observability package so /statsz and /metrics report from the same
// instrument. The JSON shape of snapshots is unchanged.
type Histogram = obs.Histogram

// HistogramSnapshot is a point-in-time copy of a Histogram, JSON-ready.
type HistogramSnapshot = obs.HistogramSnapshot

// Stats aggregates the service counters exposed on /statsz. The counters
// live on the server's private obs registry, so the same instruments back
// the Prometheus exposition on /metrics; field accessors (Add/Load) are
// unchanged from the pre-registry atomic.Int64 shape.
type Stats struct {
	Requests     *obs.Counter // BCC queries received
	CacheHits    *obs.Counter // served from a completed cache entry
	CacheMisses  *obs.Counter // required a new computation
	Coalesced    *obs.Counter // joined an in-flight identical computation
	Rejected     *obs.Counter // 429s from a full admission queue
	Canceled     *obs.Counter // requests that died on context before/while computing
	Computations *obs.Counter // engine runs actually started
	GraphUploads *obs.Counter
	// Fault-isolation counters.
	EnginePanics  *obs.Counter // contained engine panics (par.PanicError seen)
	Fallbacks     *obs.Counter // results produced by the sequential fallback
	BreakerRouted *obs.Counter // queries routed to sequential by an open breaker
	HandlerPanics *obs.Counter // HTTP handler panics recovered by middleware
	// Per-block query counters (/v1/block, /v1/vertex/...).
	ShardQueries       *obs.Counter // per-block queries received
	ShardBuilds        *obs.Counter // per-block indexes built
	ShardBuildFailures *obs.Counter // per-block index builds that failed
	shardLatency       *Histogram
	perAlgorithm       map[string]*Histogram
}

// newStats registers the request counters and per-algorithm latency
// histograms on reg.
func newStats(reg *obs.Registry) Stats {
	st := Stats{
		Requests:           reg.Counter("bicc_requests_total", "BCC queries received."),
		CacheHits:          reg.Counter("bicc_cache_hits_total", "Queries served from a completed cache entry."),
		CacheMisses:        reg.Counter("bicc_cache_misses_total", "Queries that required a new computation."),
		Coalesced:          reg.Counter("bicc_coalesced_total", "Queries that joined an in-flight identical computation."),
		Rejected:           reg.Counter("bicc_rejected_total", "Queries rejected with 429 by a full admission queue."),
		Canceled:           reg.Counter("bicc_canceled_total", "Queries whose context ended before or while computing."),
		Computations:       reg.Counter("bicc_computations_total", "Engine runs actually started."),
		GraphUploads:       reg.Counter("bicc_graph_uploads_total", "Graphs ingested via upload or open."),
		EnginePanics:       reg.Counter("bicc_engine_panics_total", "Engine panics contained by the parallel runtime."),
		Fallbacks:          reg.Counter("bicc_fallbacks_total", "Results produced by the sequential fallback."),
		BreakerRouted:      reg.Counter("bicc_breaker_routed_total", "Queries routed to sequential by an open circuit breaker."),
		HandlerPanics:      reg.Counter("bicc_handler_panics_total", "HTTP handler panics recovered by middleware."),
		ShardQueries:       reg.Counter("bicc_shard_queries_total", "Per-block queries received."),
		ShardBuilds:        reg.Counter("bicc_shard_builds_total", "Per-block indexes built for a cached decomposition."),
		ShardBuildFailures: reg.Counter("bicc_shard_build_failures_total", "Per-block index builds that failed (fault, cancellation, or panic)."),
		shardLatency:       reg.Histogram("bicc_shard_request_seconds", "End-to-end latency of per-block queries."),
		perAlgorithm:       map[string]*Histogram{},
	}
	lat := reg.HistogramVec("bicc_request_seconds",
		"End-to-end engine computation latency by executing algorithm.", "algorithm")
	for _, e := range engine.All {
		st.perAlgorithm[e.Name] = lat.With(e.Name)
	}
	return st
}

// StatsSnapshot is the JSON shape of /statsz.
type StatsSnapshot struct {
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Coalesced    int64 `json:"coalesced"`
	Rejected     int64 `json:"rejected"`
	Canceled     int64 `json:"canceled"`
	Computations int64 `json:"computations"`
	GraphUploads int64 `json:"graph_uploads"`
	GraphEvicted int64 `json:"graphs_evicted"`
	// CacheHitRate is hits / (hits + misses + coalesced), the fraction of
	// queries that did not start their own computation beyond the first.
	CacheHitRate  float64 `json:"cache_hit_rate"`
	QueueDepth    int     `json:"queue_depth"`
	Inflight      int     `json:"inflight"`
	CachedResults int     `json:"cached_results"`
	CacheMemBytes int64   `json:"result_cache_mem_bytes"`
	Graphs        int     `json:"graphs"`
	GraphBytes    int64   `json:"graph_bytes"`
	// Fault-isolation telemetry.
	EnginePanics  int64                        `json:"engine_panics"`
	Fallbacks     int64                        `json:"fallbacks"`
	BreakerRouted int64                        `json:"breaker_routed"`
	HandlerPanics int64                        `json:"handler_panics"`
	Breakers      map[string]BreakerSnapshot   `json:"breakers,omitempty"`
	Latency       map[string]HistogramSnapshot `json:"latency_ns_by_algorithm"`
	// Durability is present only when the daemon runs with a data
	// directory; a diskless bccd's /statsz is unchanged.
	Durability *DurabilitySnapshot `json:"durability,omitempty"`
	// Incr is present once the first edge mutation has been acknowledged; an
	// unmutated bccd's /statsz is unchanged.
	Incr *IncrSnapshot `json:"incr,omitempty"`
	// Repl is present only when EnableReplication has been called; a
	// standalone bccd's /statsz is unchanged.
	Repl *ReplSnapshot `json:"repl,omitempty"`
	// Scrub is present only when durability is enabled.
	Scrub *durable.ScrubStats `json:"scrub,omitempty"`
	// Plan is present only when Config.PlanMode enables the adaptive
	// planner; a statically-routed bccd's /statsz is unchanged.
	Plan *plan.Snapshot `json:"plan,omitempty"`
}

// BreakerSnapshot is one algorithm's circuit-breaker state on /statsz.
type BreakerSnapshot struct {
	State string `json:"state"`
	Opens int64  `json:"opens"`
}
