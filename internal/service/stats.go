package service

import (
	"bicc/internal/engine"
	"bicc/internal/obs"
)

// Stats holds the service's request counters and latency histograms. They
// live on the server's private obs registry, which /metrics exposes.
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
	shardLatency       *obs.Histogram
	perAlgorithm       map[string]*obs.Histogram
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
		perAlgorithm:       map[string]*obs.Histogram{},
	}
	lat := reg.HistogramVec("bicc_request_seconds",
		"End-to-end engine computation latency by executing algorithm.", "algorithm")
	for _, e := range engine.All {
		st.perAlgorithm[e.Name] = lat.With(e.Name)
	}
	return st
}
