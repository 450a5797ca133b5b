package repl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bicc/internal/httpretry"
)

// fakeNode is a stub bccd backend: healthz with a replication cursor,
// promote/follow endpoints that record calls, and caller-supplied handlers
// for everything else.
type fakeNode struct {
	srv        *httptest.Server
	appliedSeq uint64
	replAddr   string // repl_addr in the promote response, when non-empty
	promotes   atomic.Int64
	follows    atomic.Int64
	followAddr atomic.Value // string: last addr received on /v1/admin/follow
	failFollow atomic.Bool  // make /v1/admin/follow answer 409
}

func (n *fakeNode) followedAddr() string {
	if v, ok := n.followAddr.Load().(string); ok {
		return v
	}
	return ""
}

func newFakeNode(t *testing.T, appliedSeq uint64, extra func(mux *http.ServeMux, n *fakeNode)) *fakeNode {
	t.Helper()
	n := &fakeNode{appliedSeq: appliedSeq}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","role":"standby","applied_seq":%d}`+"\n", n.appliedSeq)
	})
	mux.HandleFunc("POST /v1/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		n.promotes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"role":"primary","repl_addr":%q}`+"\n", n.replAddr)
	})
	mux.HandleFunc("POST /v1/admin/follow", func(w http.ResponseWriter, r *http.Request) {
		if n.failFollow.Load() {
			w.WriteHeader(http.StatusConflict)
			return
		}
		var req struct {
			Addr string `json:"addr"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		n.followAddr.Store(req.Addr)
		n.follows.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"role":"standby"}`)
	})
	if extra != nil {
		extra(mux, n)
	}
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // health driven by forwards, not probes
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterHedgesSlowRead makes the primary answer /v1/bcc slowly and the
// standby instantly; past the hedge threshold the standby's answer must win
// and be attributed via X-Bicc-Backend.
func TestRouterHedgesSlowRead(t *testing.T) {
	slow := newFakeNode(t, 0, func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("POST /v1/bcc", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond)
			fmt.Fprintln(w, `{"from":"primary"}`)
		})
	})
	fast := newFakeNode(t, 0, func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("POST /v1/bcc", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"from":"standby"}`)
		})
	})
	rt := newTestRouter(t, RouterConfig{
		Primary:    slow.srv.URL,
		Standbys:   []string{fast.srv.URL},
		HedgeDelay: 10 * time.Millisecond,
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/bcc",
		bytes.NewReader([]byte(`{"graph":"abc","algorithm":"tv-opt"}`)))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Bicc-Backend"); got != fast.srv.URL {
		t.Fatalf("answered by %q, want the fast standby %q", got, fast.srv.URL)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["from"] != "standby" {
		t.Fatalf("body %q (err %v), want the standby's answer", rec.Body.String(), err)
	}
	if rt.Hedged() != 1 || rt.HedgedWins() != 1 {
		t.Fatalf("hedged %d wins %d, want 1 and 1", rt.Hedged(), rt.HedgedWins())
	}
}

// TestRouterAdaptiveHedgeThreshold pins the threshold used when HedgeDelay
// is 0: the 25ms default until eight primary answers are in, then the 95th
// percentile of the last 64, floored at 1ms. Every primary answer feeds it.
func TestRouterAdaptiveHedgeThreshold(t *testing.T) {
	const def = 25 * time.Millisecond
	var lw latWindow
	check := func(what string, want time.Duration) {
		t.Helper()
		if got := lw.p95(def); got != want {
			t.Errorf("%s: threshold %v, want %v", what, got, want)
		}
	}
	check("empty window", def)
	for i := 0; i < 7; i++ {
		lw.observe(100 * time.Microsecond)
	}
	check("7 samples", def)
	lw.observe(100 * time.Microsecond)
	check("8 sub-ms samples", time.Millisecond)
	for i := 1; i <= 64; i++ {
		lw.observe(time.Duration(i) * time.Millisecond)
	}
	check("1..64ms", 61*time.Millisecond)
	for i := 0; i < 64; i++ {
		lw.observe(3 * time.Millisecond)
	}
	check("window refilled with 3ms", 3*time.Millisecond)

	node := newFakeNode(t, 0, func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("POST /v1/bcc", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"from":"primary"}`)
		})
	})
	rt := newTestRouter(t, RouterConfig{Primary: node.srv.URL})
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bcc",
			bytes.NewReader([]byte(`{"graph":"abc","algorithm":"tv-opt"}`))))
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rt.lat.mu.Lock()
	n := rt.lat.n
	rt.lat.mu.Unlock()
	if n != 10 {
		t.Errorf("window holds %d primary answers after 10 reads", n)
	}
}

// TestRouterFailoverPicksMostCaughtUp kills the primary and checks that a
// retryable write promotes the standby with the highest applied sequence,
// retries against it transparently, and installs it as the new primary.
func TestRouterFailoverPicksMostCaughtUp(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	uploadOK := func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"fingerprint":"abc"}`)
		})
	}
	behind := newFakeNode(t, 5, uploadOK)
	ahead := newFakeNode(t, 9, uploadOK)

	rt := newTestRouter(t, RouterConfig{
		Primary:  deadURL,
		Standbys: []string{behind.srv.URL, ahead.srv.URL},
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/graphs?name=g",
		bytes.NewReader([]byte("graph bytes")))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Bicc-Backend"); got != ahead.srv.URL {
		t.Fatalf("retried against %q, want the most-caught-up standby %q", got, ahead.srv.URL)
	}
	if ahead.promotes.Load() != 1 || behind.promotes.Load() != 0 {
		t.Fatalf("promotes ahead=%d behind=%d, want 1 and 0",
			ahead.promotes.Load(), behind.promotes.Load())
	}
	if rt.Failovers() != 1 {
		t.Fatalf("failovers %d, want 1", rt.Failovers())
	}
	if rt.Primary() != ahead.srv.URL {
		t.Fatalf("primary %q after failover, want %q", rt.Primary(), ahead.srv.URL)
	}
}

// TestRouterRefusesMutationAfterPrimaryDeath: a non-idempotent write whose
// primary died still triggers promotion but is answered 503 + Retry-After,
// never silently re-sent.
func TestRouterRefusesMutationAfterPrimaryDeath(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	standby := newFakeNode(t, 3, nil)

	rt := newTestRouter(t, RouterConfig{
		Primary:  deadURL,
		Standbys: []string{standby.srv.URL},
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/abc/edges",
		bytes.NewReader([]byte(`{"deltas":[{"op":"insert","u":1,"v":2}]}`)))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if rec.Header().Get(httpretry.HeaderMaybeApplied) == "" {
		t.Fatal("ambiguous 503 without the maybe-applied marker: a retry layer would replay the mutation")
	}
	if rt.Refused() != 1 {
		t.Fatalf("refused %d, want 1", rt.Refused())
	}
	if standby.promotes.Load() != 1 {
		t.Fatalf("promotes %d, want 1: the refusal must still promote so the client's retry lands", standby.promotes.Load())
	}
	if rt.Primary() != standby.srv.URL {
		t.Fatalf("primary %q, want the promoted standby", rt.Primary())
	}
}

// TestRouterReadsSurvivePrimaryDeath: a read against a dead primary is
// served by a standby without any promotion.
func TestRouterReadsSurvivePrimaryDeath(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	standby := newFakeNode(t, 1, func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"graphs":{}}`)
		})
	})

	rt := newTestRouter(t, RouterConfig{
		Primary:  deadURL,
		Standbys: []string{standby.srv.URL},
	})

	// Two reads: the first discovers the primary is dead (its hedge saves
	// it), the second goes straight to the standby.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Bicc-Backend"); got != standby.srv.URL {
			t.Fatalf("read %d answered by %q, want standby", i, got)
		}
	}
	if rt.Failovers() != 0 {
		t.Fatalf("failovers %d, want 0: reads must not promote", rt.Failovers())
	}
	if standby.promotes.Load() != 0 {
		t.Fatal("a read triggered promotion")
	}
}

// TestRouterRetargetsStandbysAfterFailover: after promoting the
// most-caught-up standby, the router re-points every survivor at the
// promoted node's replication listener via /v1/admin/follow; a survivor
// whose follow call fails is dropped from the hedge pool instead of serving
// ever-staler reads while chasing its dead predecessor.
func TestRouterRetargetsStandbysAfterFailover(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	winner := newFakeNode(t, 9, func(mux *http.ServeMux, n *fakeNode) {
		n.replAddr = "127.0.0.1:7777"
		mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"fingerprint":"abc"}`)
		})
	})
	survivor := newFakeNode(t, 2, nil)
	stuck := newFakeNode(t, 1, nil)
	stuck.failFollow.Store(true)

	rt := newTestRouter(t, RouterConfig{
		Primary:  deadURL,
		Standbys: []string{survivor.srv.URL, stuck.srv.URL, winner.srv.URL},
	})

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs?name=g",
		bytes.NewReader([]byte("graph bytes"))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rt.Primary() != winner.srv.URL {
		t.Fatalf("primary %q, want the promoted %q", rt.Primary(), winner.srv.URL)
	}

	inPool := func(url string) bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		for _, b := range rt.standbys {
			if b.url == url {
				return true
			}
		}
		return false
	}
	waitUntil(t, "survivor retargeted", func() bool {
		return survivor.follows.Load() == 1 && survivor.followedAddr() == "127.0.0.1:7777"
	})
	waitUntil(t, "unretargetable standby dropped", func() bool { return !inPool(stuck.srv.URL) })
	if !inPool(survivor.srv.URL) {
		t.Fatal("survivor dropped from the hedge pool despite a successful retarget")
	}
	if winner.follows.Load() != 0 {
		t.Fatal("the promoted primary was asked to follow itself")
	}
}

// TestRouterForwardsNeverSentMutation: a mutation that arrives while the
// primary is already known dead was never handed to any backend, so its
// effect cannot be ambiguous — the router promotes and forwards it once
// instead of refusing.
func TestRouterForwardsNeverSentMutation(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	standby := newFakeNode(t, 3, func(mux *http.ServeMux, n *fakeNode) {
		mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"graphs":{}}`)
		})
		mux.HandleFunc("POST /v1/graphs/{fp}/edges", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"applied":1}`)
		})
	})

	rt := newTestRouter(t, RouterConfig{
		Primary:  deadURL,
		Standbys: []string{standby.srv.URL},
	})

	// A read first: its failed forward marks the primary unhealthy.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("priming read: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/abc/edges",
		bytes.NewReader([]byte(`{"deltas":[{"op":"insert","u":1,"v":2}]}`))))
	if rec.Code != http.StatusOK {
		t.Fatalf("never-sent mutation: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Bicc-Backend"); got != standby.srv.URL {
		t.Fatalf("answered by %q, want the promoted standby", got)
	}
	if rt.Refused() != 0 {
		t.Fatalf("refused %d, want 0: nothing was ambiguous", rt.Refused())
	}
}

// TestRouterNoReplicaServiceable: with the primary dead and no standbys,
// every request gets 503 + Retry-After.
func TestRouterNoReplicaServiceable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt := newTestRouter(t, RouterConfig{Primary: deadURL})
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/graphs", nil),
		httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader([]byte("g"))),
	} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503", req.Method, req.URL.Path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s: 503 without Retry-After", req.Method, req.URL.Path)
		}
	}
}
