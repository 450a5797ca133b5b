package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicc"
	"bicc/internal/engine"
	"bicc/internal/faults"
)

// --- circuit breaker -------------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after 2/3 faults", b.State())
	}
	b.Allow()
	b.Record(false) // a success resets the consecutive count
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Record(true)
	}
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state %v, opens %d after 3 consecutive faults", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}
	b.Record(true) // probe faults: re-open
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state %v, opens %d after failed probe", b.State(), b.Opens())
	}

	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("no second probe after another cooldown")
	}
	b.Record(false) // healthy probe closes
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after healthy probe", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

// --- middleware ------------------------------------------------------------

func TestPanicRecoveryMiddleware(t *testing.T) {
	panics := 0
	h := PanicRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("handler bug")
		}
		w.WriteHeader(http.StatusOK)
	}), func() { panics++ })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	rid := rec.Header().Get("X-Request-Id")
	if rid == "" {
		t.Error("no X-Request-Id on panicking request")
	}
	if !strings.Contains(rec.Body.String(), rid) {
		t.Errorf("500 body %q does not echo the request id %q", rec.Body.String(), rid)
	}
	if panics != 1 {
		t.Errorf("onPanic called %d times, want 1", panics)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK || panics != 1 {
		t.Errorf("clean request: status %d, panics %d", rec.Code, panics)
	}
}

func TestPanicRecoveryHonorsAbortHandler(t *testing.T) {
	h := PanicRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), nil)
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler was swallowed instead of re-raised")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestHandlerPanicCountedOnStatsz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// No production route panics on demand, so drive one panic through a
	// handler mounted behind the same PanicRecovery counter the server's
	// Handler installs.
	ph := PanicRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("bug")
	}), func() { s.stats.HandlerPanics.Add(1) })
	ph.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.HandlerPanics != 1 {
		t.Errorf("HandlerPanics = %d, want 1", snap.HandlerPanics)
	}
}

func TestDrainGate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")

	s.BeginDrain()
	resp, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 has no Retry-After")
	}
	for _, path := range []string{"/healthz", "/statsz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s answered %d while draining, want 200", path, r.StatusCode)
		}
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Errorf("healthz status %q while draining", health.Status)
	}
}

func TestRetryAfterJitterBounds(t *testing.T) {
	s := New(Config{RetryAfter: 4 * time.Second})
	for i := 0; i < 200; i++ {
		v := s.retryAfterSeconds()
		n := 0
		fmt.Sscanf(v, "%d", &n)
		// Uniform in [base/2, 3*base/2] rounded up: 2..6 seconds.
		if n < 2 || n > 6 {
			t.Fatalf("Retry-After %q outside jitter bounds [2,6]", v)
		}
	}
}

// TestMutateRunErrorsSetRetryAfter is the regression test for mutation
// batches rejected by the pre-ack seeding run: a full admission queue
// answers 429 and an expired deadline 503, both with the jittered
// Retry-After and counted like /v1/bcc's rejections.
func TestMutateRunErrorsSetRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int
		want  int
	}{
		{"queue-full", 0, http.StatusTooManyRequests},
		{"deadline", 1, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			block := make(chan struct{})
			started := make(chan struct{}, 4)
			s, ts := newTestServer(t, Config{
				Workers:        1,
				Queue:          tc.queue,
				RetryAfter:     4 * time.Second,
				DefaultTimeout: 200 * time.Millisecond,
				Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
					started <- struct{}{}
					select {
					case <-block:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return bicc.BiconnectedComponentsCtx(ctx, g, opt)
				},
			})
			up := uploadGraph(t, ts, testGraph(t), "")

			// Hold the only worker with a query that outlives the mutation.
			held := make(chan int, 1)
			go func() {
				body, _ := json.Marshal(bccRequest{Graph: up.Fingerprint, TimeoutMs: 10_000})
				resp, err := http.Post(ts.URL+"/v1/bcc", "application/json", bytes.NewReader(body))
				if err != nil {
					held <- 0
					return
				}
				resp.Body.Close()
				held <- resp.StatusCode
			}()
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatal("holding query never reached the engine")
			}

			body, _ := json.Marshal(mutateRequest{Deltas: []mutationDelta{{Op: "insert", U: 0, V: 4}}})
			resp, err := http.Post(ts.URL+"/v1/graphs/"+up.Fingerprint+"/edges", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			close(block)
			if resp.StatusCode != tc.want {
				t.Fatalf("mutation: status %d, want %d", resp.StatusCode, tc.want)
			}
			// RetryAfter 4s: uniform in [2s, 6s], as TestRetryAfterJitterBounds.
			if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || n < 2 || n > 6 {
				t.Fatalf("mutation %d: Retry-After %q outside jitter bounds [2,6]", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if code := <-held; code != http.StatusOK {
				t.Fatalf("holding query: status %d", code)
			}
			snap := s.Snapshot()
			if tc.want == http.StatusTooManyRequests && snap.Rejected != 1 {
				t.Fatalf("rejected = %d, want 1", snap.Rejected)
			}
			if tc.want == http.StatusServiceUnavailable && snap.Canceled != 1 {
				t.Fatalf("canceled = %d, want 1", snap.Canceled)
			}
		})
	}
}

// --- fault isolation end to end --------------------------------------------

func TestDegradedResultsNeverCached(t *testing.T) {
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			calls.Add(1)
			res, err := bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: bicc.Sequential})
			if err != nil {
				return nil, err
			}
			res.Degraded = true
			res.DegradedCause = errors.New("synthetic fault")
			return res, nil
		},
	})
	up := uploadGraph(t, ts, testGraph(t), "")
	for i := 1; i <= 2; i++ {
		resp, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out bccResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Degraded || out.DegradedCause == "" {
			t.Fatalf("query %d: response not marked degraded: %s", i, body)
		}
		if out.Cached {
			t.Fatalf("query %d: degraded result served from cache", i)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2 (degraded results must not be cached)", got)
	}
	if s.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after degraded-only traffic", s.cache.Len())
	}
	if got := s.stats.Fallbacks.Load(); got != 2 {
		t.Errorf("Fallbacks = %d, want 2", got)
	}
}

func TestEnginePanicFallsBackAndCounts(t *testing.T) {
	defer faults.Deactivate()
	s, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")

	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, "core.pipeline")}})
	resp, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt", Procs: 4})
	faults.Deactivate()

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out bccResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("response not degraded despite persistent engine panic: %s", body)
	}
	if out.Algorithm != "sequential" {
		t.Errorf("degraded response reports algorithm %q", out.Algorithm)
	}
	if out.NumComponents != 3 {
		t.Errorf("NumComponents = %d, want 3", out.NumComponents)
	}
	if got := s.stats.Fallbacks.Load(); got != 1 {
		t.Errorf("Fallbacks = %d, want 1", got)
	}
	if got := s.stats.EnginePanics.Load(); got < 1 {
		t.Errorf("EnginePanics = %d, want >= 1", got)
	}
}

func TestBreakerOpensRoutesAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	s, ts := newTestServer(t, Config{
		BreakerThreshold: 2,
		NoFallback:       true,
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			if opt.Algorithm != bicc.Sequential && !healthy.Load() {
				return nil, errors.New("parallel engine keeps dying")
			}
			return bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: bicc.Sequential})
		},
	})
	now := time.Unix(0, 0)
	br := s.breakers[bicc.TVOpt.String()]
	br.now = func() time.Time { return now }
	up := uploadGraph(t, ts, testGraph(t), "")
	q := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt"}

	// Two faults open the breaker.
	for i := 0; i < 2; i++ {
		resp, body := postBCC(t, ts, q)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulting query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker %v after %d faults", br.State(), 2)
	}

	// While open, queries are routed to sequential and answered degraded.
	resp, body := postBCC(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query: status %d: %s", resp.StatusCode, body)
	}
	var out bccResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !strings.Contains(out.DegradedCause, "circuit breaker open") {
		t.Fatalf("routed response not marked degraded by the breaker: %s", body)
	}
	if got := s.stats.BreakerRouted.Load(); got != 1 {
		t.Errorf("BreakerRouted = %d, want 1", got)
	}

	// healthz reports degraded while the breaker is open.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if health.Status != "degraded" || health.Breakers["tv-opt"] != "open" {
		t.Errorf("healthz = %+v while breaker open", health)
	}

	// After the cooldown a healthy probe closes the breaker again.
	healthy.Store(true)
	now = now.Add(16 * time.Second)
	resp, body = postBCC(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe query: status %d: %s", resp.StatusCode, body)
	}
	out = bccResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Errorf("probe response degraded: %s", body)
	}
	if br.State() != BreakerClosed {
		t.Errorf("breaker %v after healthy probe", br.State())
	}
	snap := s.Snapshot()
	if snap.Breakers["tv-opt"].Opens != 1 {
		t.Errorf("snapshot opens = %d, want 1", snap.Breakers["tv-opt"].Opens)
	}
}

// TestFaultHammer drives concurrent queries at a race-enabled server while
// an intermittent panic plan is active: the daemon must never crash, every
// response must be well-formed, no degraded result may be served from the
// cache, and after the plan is lifted clean queries must come back healthy.
func TestFaultHammer(t *testing.T) {
	defer faults.Deactivate()
	_, ts := newTestServer(t, Config{Workers: 4, AttemptTimeout: 2 * time.Second})
	up := uploadGraph(t, ts, testGraph(t), "")

	rule := faults.NewRule(faults.KindPanic, "core.pipeline")
	rule.Every = 3 // deterministic 1-in-3 of pipeline checkpoints
	faults.Activate(&faults.Plan{Seed: 99, Rules: []*faults.Rule{rule}})

	var algos []string
	for _, e := range engine.Parallel() {
		algos = append(algos, e.Name)
	}
	algos = append(algos, bicc.Auto.String())
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				req := bccRequest{
					Graph:     up.Fingerprint,
					Algorithm: algos[(w+i)%len(algos)],
					Procs:     1 + (w+i)%4,
				}
				resp, body := postBCC(t, ts, req)
				switch resp.StatusCode {
				case http.StatusOK:
					var out bccResponse
					if err := json.Unmarshal(body, &out); err != nil {
						errs <- fmt.Sprintf("bad body: %v", err)
						continue
					}
					if out.NumComponents != 3 {
						errs <- fmt.Sprintf("wrong answer under faults: %s", body)
					}
					if out.Cached && out.Degraded {
						errs <- fmt.Sprintf("degraded result served from cache: %s", body)
					}
				case http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusTooManyRequests:
					// Contained failure: acceptable under injected faults.
				default:
					errs <- fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	faults.Deactivate()
	resp, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "sequential"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault query: status %d: %s", resp.StatusCode, body)
	}
	var out bccResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded || out.NumComponents != 3 {
		t.Errorf("post-fault query unhealthy: %s", body)
	}
}
