package httpretry

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func fastPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestRetriesPlain503 is the baseline: an unmarked 503 proves the request
// was refused before effect, so the client resends until it succeeds.
func TestRetriesPlain503(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := &Client{Policy: fastPolicy()}
	resp, err := c.Post(srv.URL, "application/json", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestMaybeApplied503IsNotRetried: a 503 stamped with HeaderMaybeApplied
// says the request may already have taken effect (the router's primary died
// mid-write), so auto-resending a non-idempotent call could double-apply
// it. The response must come back to the caller after exactly one attempt.
func TestMaybeApplied503IsNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set(HeaderMaybeApplied, "1")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := &Client{Policy: fastPolicy()}
	resp, err := c.Post(srv.URL, "application/json", []byte(`{"deltas":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the 503 handed back", resp.StatusCode)
	}
	if resp.Header.Get(HeaderMaybeApplied) == "" {
		t.Fatal("maybe-applied marker lost on the way back to the caller")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1: an ambiguous refusal must never be auto-retried", calls.Load())
	}
}

// TestRetries429 covers the other retryable status.
func TestRetries429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := &Client{Policy: fastPolicy()}
	resp, err := c.Post(srv.URL, "application/json", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want 200 after 2", resp.StatusCode, calls.Load())
	}
}
