package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bicc/internal/httpretry"
)

// Router is the thin HTTP front over one primary and N standbys. It
// forwards /v1/* to the primary, hedges idempotent reads to a
// fingerprint-chosen standby once the primary has been slower than a
// latency percentile threshold, and on primary death promotes the
// most-caught-up standby and fails writes over to it. 503 + Retry-After
// comes back only when no replica is serviceable.
//
// Safety argument for failover: uploads are content-addressed (re-sending
// is idempotent) and deletes are naturally idempotent, so those are retried
// once against the promoted standby. Mutations are NOT idempotent; a
// mutation that was already handed to a primary that then died mid-flight
// may have committed (durable and replicated) before the death, so it gets
// 503 + Retry-After stamped with httpretry.HeaderMaybeApplied and no
// forwarded retry — the client decides, knowing the outcome is ambiguous.
// A mutation that was never sent anywhere (the primary was already known
// dead) carries no such ambiguity and is forwarded once to the promoted
// standby like any first send.
type RouterConfig struct {
	// Primary and Standbys are base URLs (http://host:port).
	Primary  string
	Standbys []string
	// HedgeDelay, when > 0, is a fixed hedging threshold; 0 means adaptive
	// (p95 of recent primary read latencies, floored at 1ms).
	HedgeDelay time.Duration
	// ProbeInterval is the health-check cadence; <= 0 means 250ms.
	ProbeInterval time.Duration
	// RetryAfter is the hint on 503 responses; <= 0 means 1s.
	RetryAfter time.Duration
	// MaxBufferBytes bounds request-body buffering (needed for hedging and
	// failover retries); larger bodies are streamed to the primary without
	// either. <= 0 means 64 MiB.
	MaxBufferBytes int64
	// Client issues the proxied requests; nil builds one with no overall
	// timeout (query deadlines belong to the backend).
	Client *http.Client
	// Logf receives failover and health transitions; nil disables them.
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBufferBytes <= 0 {
		c.MaxBufferBytes = 64 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// backend is one bccd node as the router sees it.
type backend struct {
	url     string
	healthy atomic.Bool
}

// Router implements http.Handler.
type Router struct {
	cfg RouterConfig

	mu       sync.Mutex
	primary  *backend
	standbys []*backend
	failing  bool // a failover is in progress; writers wait their turn

	lat latWindow

	stop chan struct{}
	wg   sync.WaitGroup

	hedged     atomic.Int64
	hedgedWins atomic.Int64
	failovers  atomic.Int64
	refused    atomic.Int64
}

// NewRouter builds a Router and starts its health prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" {
		return nil, fmt.Errorf("repl: RouterConfig.Primary is required")
	}
	rt := &Router{cfg: cfg, stop: make(chan struct{})}
	rt.primary = &backend{url: strings.TrimRight(cfg.Primary, "/")}
	rt.primary.healthy.Store(true)
	for _, u := range cfg.Standbys {
		b := &backend{url: strings.TrimRight(u, "/")}
		b.healthy.Store(true)
		rt.standbys = append(rt.standbys, b)
	}
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// Failovers, Hedged, HedgedWins, Refused expose the router's counters.
func (rt *Router) Failovers() int64  { return rt.failovers.Load() }
func (rt *Router) Hedged() int64     { return rt.hedged.Load() }
func (rt *Router) HedgedWins() int64 { return rt.hedgedWins.Load() }
func (rt *Router) Refused() int64    { return rt.refused.Load() }

// Primary returns the current primary's base URL.
func (rt *Router) Primary() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.primary.url
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// --- health ----------------------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.mu.Lock()
		targets := append([]*backend{rt.primary}, rt.standbys...)
		rt.mu.Unlock()
		for _, b := range targets {
			rt.probe(b)
		}
	}
}

func (rt *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := rt.cfg.Client.Do(req)
	up := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if b.healthy.Swap(up) != up {
		rt.logf("router: backend %s now %s", b.url, map[bool]string{true: "healthy", false: "down"}[up])
	}
}

// --- latency window ---------------------------------------------------------

// latWindow keeps the last N primary read latencies for the adaptive hedge
// threshold.
type latWindow struct {
	mu      sync.Mutex
	samples [64]time.Duration
	n       int
	next    int
}

func (lw *latWindow) observe(d time.Duration) {
	lw.mu.Lock()
	lw.samples[lw.next] = d
	lw.next = (lw.next + 1) % len(lw.samples)
	if lw.n < len(lw.samples) {
		lw.n++
	}
	lw.mu.Unlock()
}

// p95 returns the 95th percentile of the window, or def with too few
// samples.
func (lw *latWindow) p95(def time.Duration) time.Duration {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.n < 8 {
		return def
	}
	s := make([]time.Duration, lw.n)
	copy(s, lw.samples[:lw.n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := s[(len(s)*95)/100]
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// --- request classification -------------------------------------------------

// isIdempotentRead reports whether the request can be served by any replica
// and safely sent twice. POST /v1/bcc is a pure computation over registered
// state — a read in everything but method.
func isIdempotentRead(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	return r.Method == http.MethodPost && r.URL.Path == "/v1/bcc"
}

// isRetryableWrite reports whether the write may be re-sent to a promoted
// standby after a primary death: content-addressed uploads and deletes are
// idempotent; mutations are not.
func isRetryableWrite(r *http.Request) bool {
	switch {
	case r.Method == http.MethodPost && (r.URL.Path == "/v1/graphs" || r.URL.Path == "/v1/graphs/open"):
		return true
	case r.Method == http.MethodDelete:
		return true
	}
	return false
}

// hashKey derives the hedging shard key: the graph fingerprint when the
// path carries one, otherwise the path plus body bytes (covers /v1/bcc,
// whose fingerprint is in the JSON body).
func hashKey(r *http.Request, body []byte) uint64 {
	h := fnv.New64a()
	if fp := pathFingerprint(r.URL.Path); fp != "" {
		io.WriteString(h, fp)
	} else {
		io.WriteString(h, r.URL.Path)
		h.Write(body)
	}
	return h.Sum64()
}

// pathFingerprint extracts {fp} from /v1/graphs/{fp}[/...] paths.
func pathFingerprint(p string) string {
	for _, prefix := range []string{"/v1/graphs/", "/v1/graph/"} {
		if rest, ok := strings.CutPrefix(p, prefix); ok {
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return ""
}

// --- serving ----------------------------------------------------------------

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, buffered, err := rt.bufferBody(r)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if !buffered {
		// Too big to hedge or retry: one streamed shot at the primary.
		rt.forwardStream(w, r)
		return
	}
	if isIdempotentRead(r) {
		rt.serveRead(w, r, body)
		return
	}
	rt.serveWrite(w, r, body)
}

// bufferBody reads up to MaxBufferBytes of the request body, reporting
// whether the whole body fit.
func (rt *Router) bufferBody(r *http.Request) ([]byte, bool, error) {
	if r.Body == nil {
		return nil, true, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBufferBytes+1))
	if err != nil {
		return nil, false, err
	}
	if int64(len(body)) > rt.cfg.MaxBufferBytes {
		r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
		return nil, false, nil
	}
	return body, true, nil
}

// forward sends one copy of the request to target and returns the response.
func (rt *Router) forward(ctx context.Context, target string, r *http.Request, body []byte) (*http.Response, error) {
	u := target + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return rt.cfg.Client.Do(req)
}

// copyResponse relays resp to w, stamping the serving backend.
func copyResponse(w http.ResponseWriter, resp *http.Response, backendURL string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Bicc-Backend", backendURL)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// forwardStream relays an unbuffered request to the primary, no retries.
func (rt *Router) forwardStream(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	primary := rt.primary
	rt.mu.Unlock()
	u := primary.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, "%v", err)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		primary.healthy.Store(false)
		if !isIdempotentRead(r) && !isRetryableWrite(r) {
			// The streamed write was already in flight; its effect is
			// ambiguous, exactly as on the buffered path.
			w.Header().Set(httpretry.HeaderMaybeApplied, "1")
		}
		rt.unavailable(w, "primary unreachable: %v", err)
		return
	}
	copyResponse(w, resp, primary.url)
}

// pickStandby chooses a healthy standby by shard key (stable per
// fingerprint, so one graph's hedged reads hit one standby's caches).
func (rt *Router) pickStandby(key uint64) *backend {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var healthy []*backend
	for _, b := range rt.standbys {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	return healthy[key%uint64(len(healthy))]
}

// serveRead answers an idempotent read: primary first, hedged to a standby
// once the hedge threshold passes, first usable response wins.
func (rt *Router) serveRead(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.mu.Lock()
	primary := rt.primary
	rt.mu.Unlock()
	standby := rt.pickStandby(hashKey(r, body))

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	type reply struct {
		resp    *http.Response
		backend string
		err     error
		hedge   bool
	}
	ch := make(chan reply, 2)
	inflight := 0
	launch := func(b *backend, hedge bool) {
		inflight++
		go func() {
			start := time.Now()
			resp, err := rt.forward(ctx, b.url, r, body)
			if err == nil && !hedge {
				rt.lat.observe(time.Since(start))
			}
			if err != nil && ctx.Err() == nil {
				b.healthy.Store(false)
			}
			ch <- reply{resp, b.url, err, hedge}
		}()
	}

	primaryUp := primary.healthy.Load()
	if primaryUp {
		launch(primary, false)
	} else if standby != nil {
		// Primary known dead: go straight to the standby. Reads need no
		// promotion — a warm standby answers them read-only.
		launch(standby, true)
		standby = nil
	} else {
		rt.unavailable(w, "no serviceable replica")
		return
	}

	hedgeDelay := rt.cfg.HedgeDelay
	if hedgeDelay <= 0 {
		hedgeDelay = rt.lat.p95(25 * time.Millisecond)
	}
	hedgeTimer := time.NewTimer(hedgeDelay)
	defer hedgeTimer.Stop()

	var firstErr reply
	for inflight > 0 {
		select {
		case <-hedgeTimer.C:
			if standby != nil {
				rt.hedged.Add(1)
				launch(standby, true)
				standby = nil
			}
		case rep := <-ch:
			inflight--
			if rep.err == nil {
				if rep.hedge {
					rt.hedgedWins.Add(1)
				}
				if inflight > 0 {
					// The losing request may still complete (successfully,
					// if it beats the context cancellation): reap its reply
					// and close the body, or a connection leaks per hedged
					// race.
					go func(n int) {
						for i := 0; i < n; i++ {
							if loser := <-ch; loser.resp != nil {
								io.Copy(io.Discard, io.LimitReader(loser.resp.Body, 1<<20))
								loser.resp.Body.Close()
							}
						}
					}(inflight)
				}
				copyResponse(w, rep.resp, rep.backend)
				return
			}
			if firstErr.err == nil {
				firstErr = rep
			}
			// The launched copy failed; fire the hedge immediately if it
			// has not gone out yet.
			if standby != nil {
				rt.hedged.Add(1)
				launch(standby, true)
				standby = nil
			}
		}
	}
	rt.unavailable(w, "all replicas failed: %v", firstErr.err)
}

// serveWrite forwards a write to the primary; a dead primary triggers
// failover, after which idempotent writes — and non-idempotent ones that
// were provably never handed to any backend — are retried once against the
// promoted standby. A non-idempotent write that was already in flight when
// the primary died is refused with Retry-After plus HeaderMaybeApplied, so
// no retry layer (ours or the client's) can legally replay it.
func (rt *Router) serveWrite(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.mu.Lock()
	primary := rt.primary
	rt.mu.Unlock()

	// attempted records whether this request was actually handed to a
	// backend: only then can its effect be ambiguous.
	attempted := false
	if primary.healthy.Load() {
		attempted = true
		resp, err := rt.forward(r.Context(), primary.url, r, body)
		if err == nil {
			copyResponse(w, resp, primary.url)
			return
		}
		if r.Context().Err() != nil {
			writeRouterError(w, http.StatusBadGateway, "%v", err)
			return
		}
		primary.healthy.Store(false)
		rt.logf("router: write to %s failed (%v), starting failover", primary.url, err)
	}
	ambiguous := attempted && !isRetryableWrite(r)

	promoted, err := rt.failover(primary)
	if err != nil {
		if ambiguous {
			w.Header().Set(httpretry.HeaderMaybeApplied, "1")
		}
		rt.unavailable(w, "primary dead, failover failed: %v", err)
		return
	}
	if ambiguous {
		// The dead primary may or may not have committed this mutation
		// before it died; the router cannot re-send a non-idempotent write.
		// HeaderMaybeApplied tells retry layers this 503 is NOT a
		// refused-before-effect rejection — the client decides.
		rt.refused.Add(1)
		w.Header().Set(httpretry.HeaderMaybeApplied, "1")
		rt.unavailable(w, "primary died mid-write and the request may have been applied; verify before retrying against the promoted replica")
		return
	}
	resp, err := rt.forward(r.Context(), promoted, r, body)
	if err != nil {
		rt.unavailable(w, "promoted replica unreachable: %v", err)
		return
	}
	copyResponse(w, resp, promoted)
}

// failover promotes the most-caught-up healthy standby and installs it as
// the primary. Concurrent callers coalesce: one runs the promotion, the
// rest wait and reuse its outcome.
func (rt *Router) failover(dead *backend) (string, error) {
	rt.mu.Lock()
	for rt.failing {
		// Another request is already promoting; spin-wait on the lock. The
		// window is one promote round-trip, and writers are rare.
		rt.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		rt.mu.Lock()
	}
	if rt.primary != dead {
		// A concurrent failover already installed a new primary.
		url := rt.primary.url
		rt.mu.Unlock()
		return url, nil
	}
	rt.failing = true
	candidates := append([]*backend(nil), rt.standbys...)
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		rt.failing = false
		rt.mu.Unlock()
	}()

	// Pick the standby with the highest applied sequence: promoting anyone
	// else would lose acked records a better candidate still holds.
	type cand struct {
		b   *backend
		seq uint64
	}
	var best *cand
	for _, b := range candidates {
		seq, err := rt.appliedSeq(b)
		if err != nil {
			b.healthy.Store(false)
			continue
		}
		if best == nil || seq > best.seq {
			best = &cand{b, seq}
		}
	}
	if best == nil {
		return "", fmt.Errorf("no reachable standby")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, best.b.url+"/v1/admin/promote", nil)
	if err != nil {
		return "", err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return "", fmt.Errorf("promoting %s: %w", best.b.url, err)
	}
	pb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("promoting %s: %s: %s", best.b.url, resp.Status, strings.TrimSpace(string(pb)))
	}
	var report struct {
		ReplAddr string `json:"repl_addr"`
	}
	_ = json.Unmarshal(pb, &report)

	rt.mu.Lock()
	rt.primary = best.b
	var rest []*backend
	for _, b := range rt.standbys {
		if b != best.b {
			rest = append(rest, b)
		}
	}
	rt.standbys = rest
	rt.mu.Unlock()
	rt.failovers.Add(1)
	rt.logf("router: promoted %s to primary (applied seq %d)", best.b.url, best.seq)
	rt.retargetStandbys(rest, report.ReplAddr)
	return best.b.url, nil
}

// retargetStandbys re-points the surviving standbys at the promoted
// primary's replication listener via POST /v1/admin/follow. Without this a
// survivor keeps chasing its dead predecessor forever: its /healthz stays
// 200 while its data grows stale without bound and replication durability
// silently drops to one node. A standby that cannot be retargeted — every
// standby, when the promoted node exposes no replication listener — is
// dropped from the hedge pool instead of serving unboundedly stale reads.
// Runs asynchronously: the write that triggered the failover must not wait
// on N admin round-trips.
func (rt *Router) retargetStandbys(standbys []*backend, replAddr string) {
	if len(standbys) == 0 {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for _, b := range standbys {
			err := fmt.Errorf("promoted primary exposes no replication listener")
			if replAddr != "" {
				err = rt.postFollow(b, replAddr)
			}
			if err != nil {
				rt.logf("router: dropping standby %s from the hedge pool: %v", b.url, err)
				rt.dropStandby(b)
				continue
			}
			rt.logf("router: standby %s now follows %s", b.url, replAddr)
		}
	}()
}

// postFollow asks one standby to follow replAddr.
func (rt *Router) postFollow(b *backend, replAddr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, _ := json.Marshal(map[string]string{"addr": replAddr})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/admin/follow", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follow: %s: %s", resp.Status, strings.TrimSpace(string(rb)))
	}
	return nil
}

// dropStandby removes b from the hedge pool.
func (rt *Router) dropStandby(b *backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var rest []*backend
	for _, s := range rt.standbys {
		if s != b {
			rest = append(rest, s)
		}
	}
	rt.standbys = rest
}

// appliedSeq reads a standby's replication cursor from its /healthz. The
// body is decoded whatever the status code: a standby holding damaged files
// answers 503 but still reports how far it has applied.
func (rt *Router) appliedSeq(b *backend) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		AppliedSeq uint64 `json:"applied_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, err
	}
	return health.AppliedSeq, nil
}

// unavailable answers 503 with the Retry-After hint — the router's only
// refusal, reserved for "no replica can serve this right now".
func (rt *Router) unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeRouterError(w, http.StatusServiceUnavailable, format, args...)
}

func writeRouterError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
