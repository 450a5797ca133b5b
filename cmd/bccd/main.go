// Command bccd runs the biconnected-components query service: a long-lived
// HTTP/JSON daemon that keeps parsed graphs resident, coalesces identical
// in-flight queries, caches results, and bounds concurrent engine runs.
//
// Usage:
//
//	bccd [-addr :8714] [-workers N] [-queue N] [-cache N] [-mem-budget B]
//	     [-max-graph-bytes B] [-max-body-bytes B] [-timeout D]
//	     [-allow-local-files] [-load name=path ...] [-drain-timeout D]
//	     [-attempt-timeout D] [-breaker-threshold N] [-breaker-cooldown D]
//	     [-no-fallback] [-debug-addr :8715]
//	     [-data-dir DIR] [-wal-sync always|interval|none]
//	     [-wal-sync-interval D] [-compact-bytes B]
//	     [-incr-threshold R] [-replay-log-every N]
//	     [-repl-listen ADDR] [-repl-follow ADDR] [-repl-quorum N]
//	     [-repl-ack-timeout D]
//	     [-scrub-interval D] [-scrub-budget B]
//
// The result cache keeps at most -cache results, and with -mem-budget at
// most that many estimated bytes of results and per-block indexes; an
// evicted result is dropped, and the next query for it recomputes.
// -max-graph-bytes also refuses (400) an upload or a mutation that leaves a
// graph whose resident bytes alone, 24 per edge plus 4 per vertex, exceed
// it, and a query's procs is capped at 1024.
//
// With -data-dir set, the daemon is durable: every acknowledged graph
// upload and mutation is fsync'd to a write-ahead log before the response
// is sent, and snapshots compact the log in the background. Graphs are the
// only durable state; results are recomputed after a restart. On boot the
// directory is recovered — torn tails truncated, graphs replayed into the
// registry with their fingerprints re-checked — and the outcome is logged
// and reported on /metrics. Subdirectories left by older builds, such as
// spill/, are ignored and can be deleted. Without -data-dir nothing touches
// disk.
//
// The per-block endpoints (/v1/block/{id}, /v1/vertex/{v}/...) are always
// served. They read the same cached decomposition /v1/bcc does; the first
// per-block query for a cached result builds its block index (the blocks
// of each vertex, the vertices and edge ids of each block), kept on the
// cache entry and counted against -mem-budget, so later queries read one
// list instead of the whole payload, and a block's subgraph is remapped on
// request.
//
// A durable daemon also scrubs its data directory: each cycle re-reads the
// WAL segments and snapshots, re-verifies their CRC-32C frames and record
// bodies, and repairs damage with one compaction, which snapshots the
// in-memory state and retires every older file, the damaged one included.
// A compaction that fails (a full disk, say) moves and deletes nothing:
// /healthz answers 503 naming the damaged files under "damaged", and every
// later cycle retries until one succeeds. A directory that cannot be listed
// counts as damage too. -scrub-interval runs cycles in the background,
// -scrub-budget bounds the bytes re-verified per cycle (a rotating cursor
// keeps coverage complete across cycles), and POST /v1/admin/scrub runs one
// cycle on demand. A primary also re-checks every retention-ring record as
// it ships to a standby; a record that fails is never sent, and the standby
// resyncs from a snapshot instead.
//
// With -repl-listen, a durable daemon is a replication primary: every WAL
// record (graph uploads, deletes, mutation deltas) streams to connected
// standbys, which ack once the record is fsync'd in their own WAL. With
// -repl-follow ADDR, the daemon is a warm standby instead: it follows the
// primary at ADDR, replays the stream into its own registry and WAL, serves
// reads, and answers writes with 503 until POST /v1/admin/promote flips it
// to primary (re-checking every graph fingerprint, exactly as boot
// recovery). Both flags require -data-dir.
//
// An algorithm:"auto" query (the default) runs the engine the library's
// Auto would pick, from the same cost table fitted to timed engine runs;
// without "procs" the planner also picks the parallelism degree, and
// engines with an open circuit breaker are skipped. ?explain=1 on /v1/bcc
// echoes the decision, and the bicc_plan_* series on /metrics count
// decisions.
//
// On SIGINT/SIGTERM the daemon drains gracefully: new work is rejected with
// 503 (health and metrics stay readable), in-flight requests get
// -drain-timeout to finish, and any stragglers still running after that are
// canceled through their request contexts before the process exits. The WAL
// is flushed and closed last, so a clean stop never needs recovery repair.
//
// Endpoints:
//
//	POST   /v1/graphs        upload a graph (?format=text|dimacs|binary,
//	                         ?normalize=1, ?name=label)
//	POST   /v1/graphs/open   load a graph file server-side (gated by
//	                         -allow-local-files)
//	GET    /v1/graphs        list resident graphs
//	GET    /v1/graphs/{fp}   one graph's info
//	DELETE /v1/graphs/{fp}   evict a graph
//	POST   /v1/graphs/{fp}/edges  mutate a graph in place: {"deltas":
//	                         [{"op": "insert"|"delete", "u": U, "v": V} ...]}.
//	                         Durable daemons fsync the batch to the WAL before
//	                         acknowledging; the block-cut tree decides between
//	                         absorbing the change, recomputing only the dirty
//	                         blocks, or a full engine run (-incr-threshold sets
//	                         the dirty-region ratio that forces a full run)
//	POST   /v1/bcc           run a query: {"graph": fp, "algorithm": ...,
//	                         "procs": N, "timeout_ms": T, "include": [...]}
//	GET    /v1/block/{id}    one block's vertices, cut vertices, and
//	                         (?include=subgraph) remapped subgraph (?graph=fp)
//	GET    /v1/vertex/{v}/blocks        block ids containing v
//	GET    /v1/vertex/{v}/articulation  articulation membership of v
//	POST   /v1/admin/promote promote a standby to primary (replication)
//	POST   /v1/admin/follow  re-point a standby at a new primary's
//	                         replication listener: {"addr": "host:port"}
//	                         (the router calls this after a failover)
//	POST   /v1/admin/scrub   run one scrub cycle now, report in the response
//	GET    /healthz          liveness; role and applied_seq when replicating
//	GET    /metrics          Prometheus text exposition (engine + service)
//
// Appending ?trace=1 to a /v1/bcc query returns the per-phase span breakdown
// of the computation alongside the result.
//
// With -debug-addr set, a second listener serves GET /metrics plus the
// net/http/pprof handlers under /debug/pprof/ — on a separate address so
// profiling endpoints are never exposed on the query port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/obs"
	"bicc/internal/service"
)

// loadFlags collects repeated -load name=path arguments.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }

func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bccd: ")

	addr := flag.String("addr", ":8714", "listen address")
	workers := flag.Int("workers", 0, "max concurrent engine computations (0 = GOMAXPROCS/2)")
	queue := flag.Int("queue", -1, "max queued computations (-1 = 4x workers)")
	cacheEntries := flag.Int("cache", 0, "max cached query results (0 = 256)")
	maxGraphBytes := flag.Int64("max-graph-bytes", 0, "graph registry byte budget (0 = 1 GiB)")
	timeout := flag.Duration("timeout", 0, "default per-query timeout (0 = 60s)")
	allowLocal := flag.Bool("allow-local-files", false, "enable POST /v1/graphs/open (server-side file reads)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests may run after SIGINT/SIGTERM")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt bound on parallel engines before fallback (0 = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive engine faults that open an algorithm's circuit breaker (0 = 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 15s)")
	noFallback := flag.Bool("no-fallback", false, "return engine faults as errors instead of degrading to the sequential engine")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this extra address (empty = disabled)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body cap for uploads, queries and mutation batches, 413 past it (0 = 256 MiB)")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL + snapshots (empty = diskless)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always (per append), interval, or none")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "flush period under -wal-sync interval (0 = 5ms)")
	compactBytes := flag.Int64("compact-bytes", 0, "WAL size that triggers background snapshot compaction (0 = 64 MiB)")
	memBudget := flag.Int64("mem-budget", 0, "result cache byte budget for results and per-block indexes; past it LRU results are dropped (0 = entry count only)")
	incrThreshold := flag.Float64("incr-threshold", 0, "dirty-region edge ratio past which a mutation degrades to a full engine run (0 = 0.5)")
	replayLogEvery := flag.Int("replay-log-every", 5000, "log boot WAL-replay progress every N records (0 = silent)")
	replListen := flag.String("repl-listen", "", "serve WAL replication to standbys on this address (requires -data-dir)")
	replFollow := flag.String("repl-follow", "", "run as a warm standby following the primary's -repl-listen address (requires -data-dir)")
	replQuorum := flag.Int("repl-quorum", 0, "standby acks to wait for per write before answering the client (0 = 1; degrades on timeout)")
	replAckTimeout := flag.Duration("repl-ack-timeout", 0, "bound on the per-write standby-ack wait (0 = 2s)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background scrub cycle cadence over the -data-dir files (0 = manual cycles via POST /v1/admin/scrub only)")
	scrubBudget := flag.Int64("scrub-budget", 0, "bytes re-verified per scrub cycle; the cursor resumes next cycle (0 = unlimited)")
	var loads loadFlags
	flag.Var(&loads, "load", "preload a graph at startup: name=path or just path (repeatable; format by extension)")
	flag.Parse()

	// The daemon always runs instrumented: the per-site cost is one atomic
	// load plus a counter add, noise next to any engine run worth serving.
	obs.SetEnabled(true)

	srv := service.New(service.Config{
		Workers:          *workers,
		Queue:            *queue,
		CacheEntries:     *cacheEntries,
		MemBudget:        *memBudget,
		MaxGraphBytes:    *maxGraphBytes,
		MaxBodyBytes:     *maxBodyBytes,
		DefaultTimeout:   *timeout,
		AllowLocalFiles:  *allowLocal,
		AttemptTimeout:   *attemptTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		NoFallback:       *noFallback,
		IncrThreshold:    *incrThreshold,
	})
	if *dataDir != "" {
		mode, err := durable.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("-wal-sync: %v", err)
		}
		rep, err := srv.EnableDurability(service.DurabilityConfig{
			Dir:            *dataDir,
			Sync:           mode,
			SyncInterval:   *walSyncInterval,
			CompactBytes:   *compactBytes,
			ReplayLogEvery: *replayLogEvery,
			ScrubInterval:  *scrubInterval,
			ScrubBudget:    *scrubBudget,
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatalf("-data-dir %s: %v", *dataDir, err)
		}
		log.Printf("recovered %d graphs from %s in %v (truncations %d, dropped %d, wal records %d, snapshot records %d)",
			rep.Graphs, *dataDir, rep.Duration.Round(time.Millisecond), rep.Truncations,
			rep.DroppedGraphs+rep.DroppedRecords, rep.WALRecords, rep.SnapshotRecords)
		if *scrubInterval > 0 {
			log.Printf("scrubber: background cycle every %v (budget %d bytes/cycle)", *scrubInterval, *scrubBudget)
		}
	}
	if *replListen != "" || *replFollow != "" {
		if *dataDir == "" {
			log.Fatalf("-repl-listen/-repl-follow require -data-dir (replication ships the WAL)")
		}
		if err := srv.EnableReplication(service.ReplConfig{
			ListenAddr: *replListen,
			FollowAddr: *replFollow,
			Quorum:     *replQuorum,
			AckTimeout: *replAckTimeout,
			Logf:       log.Printf,
		}); err != nil {
			log.Fatalf("replication: %v", err)
		}
		if *replFollow != "" {
			log.Printf("standby: following %s (read-only until promoted)", *replFollow)
		} else {
			log.Printf("primary: replicating WAL on %s", srv.ReplAddr())
		}
	}
	for _, spec := range loads {
		name, fp, err := preload(srv, spec)
		if err != nil {
			log.Fatalf("-load %s: %v", spec, err)
		}
		log.Printf("preloaded %s as %s (%s)", spec, fp, name)
	}

	// baseCtx underlies every request context; canceling it after the drain
	// deadline tears down straggler computations through the engines' own
	// cancellation plumbing instead of abandoning them.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	// Listen explicitly so the actual bound address can be logged: with
	// -addr :0 (tests, harnesses) the kernel picks the port, and callers
	// discover it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", srv.MetricsHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("debug endpoints (metrics, pprof) on %s", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%v: draining (up to %v)", s, *drainTimeout)
	}
	// Stop admitting new work first, so the Shutdown window is spent
	// finishing queries already in flight rather than accepting fresh ones
	// over kept-alive connections.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	if err != nil {
		// Drain deadline hit with requests still running: cancel their
		// contexts and give the engines a moment to unwind before exiting.
		log.Printf("drain timeout, canceling stragglers: %v", err)
		cancelBase()
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		_ = httpSrv.Shutdown(ctx2)
	}
	// Flush and close the WAL only after the HTTP server has stopped: every
	// acknowledged write is already on disk (or in the sync loop's hands),
	// and closing last guarantees a clean stop leaves files the next boot
	// recovers with zero truncations. CloseDurability stops replication
	// first, so no record is published after the WAL closes.
	if derr := srv.CloseDurability(); derr != nil {
		log.Printf("closing data dir: %v", derr)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	log.Print("drained, bye")
}

// preload parses one -load spec ("name=path" or "path") and registers the
// graph, normalizing so dirty inputs don't abort startup.
func preload(srv *service.Server, spec string) (name, fp string, err error) {
	path := spec
	if i := strings.IndexByte(spec, '='); i >= 0 {
		name, path = spec[:i], spec[i+1:]
	}
	if name == "" {
		name = filepath.Base(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	var g *bicc.Graph
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bin", ".bicc":
		g, err = bicc.ReadGraphBinary(f)
	case ".col", ".dimacs":
		g, err = bicc.ReadGraphDIMACS(f)
	default:
		g, err = bicc.ReadGraph(f)
	}
	if err != nil {
		return "", "", fmt.Errorf("parsing: %w", err)
	}
	// AddGraph, not Registry().Add: preloaded graphs go through the WAL
	// too when the daemon is durable.
	fp, _, err = srv.AddGraph(name, g)
	if err != nil {
		return "", "", err
	}
	return name, fp, nil
}
