// Package httpretry is the retry layer bccmut posts its mutation batches
// through. A replicated deployment answers 429 (admission queue full) and
// 503 (draining, read-only standby, failover in progress) as a matter of
// course; the client retries those with jittered exponential backoff, honoring
// the server's Retry-After hint when one is present, instead of dying on
// the first transient.
//
// Only status-coded rejections are retried: a 429 or 503
// normally proves the request was refused before it took effect, so
// resending is safe even for non-idempotent calls like edge mutations. The
// one 503 that does NOT carry that proof — the router's "primary died
// mid-write, the mutation may have committed" refusal — is stamped with
// HeaderMaybeApplied and is never auto-retried: it is returned to the
// caller, who alone knows whether re-sending is acceptable. Transport
// errors (the connection died mid-request) likewise carry no proof and are
// never retried.
package httpretry

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// HeaderMaybeApplied marks a 503 whose request MAY already have taken
// effect on the server (the router's primary died mid-write after the
// request was handed to it). Such a response must never be auto-retried:
// re-sending a non-idempotent call that actually committed double-applies
// it. Servers set it to "1"; its presence, not its value, is what matters.
const HeaderMaybeApplied = "X-Bicc-Maybe-Applied"

// Policy tunes the retry loop. Zero values pick defaults.
type Policy struct {
	// MaxAttempts bounds total tries, first included; <= 0 means 5.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff; <= 0 means 200ms.
	BaseDelay time.Duration
	// MaxDelay caps one sleep, including server Retry-After hints;
	// <= 0 means 5s.
	MaxDelay time.Duration
	// Logf announces each retry; nil disables the lines.
	Logf func(format string, args ...any)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// Client wraps an http.Client with the retry policy. Bodies are passed as
// byte slices so every attempt can resend them.
type Client struct {
	HTTP   *http.Client
	Policy Policy
}

// Post issues a POST with retries; body is resent on each attempt.
func (c *Client) Post(url, contentType string, body []byte) (*http.Response, error) {
	pol := c.Policy.withDefaults()
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	backoff := pol.BaseDelay
	for attempt := 1; ; attempt++ {
		resp, err := httpc.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if !retryableResponse(resp) || attempt >= pol.MaxAttempts {
			return resp, nil
		}

		delay := backoff/2 + rand.N(backoff/2+1) // jitter in [b/2, b]
		if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			// The server knows its own recovery horizon better than our
			// backoff does; add jitter so a herd of clients still spreads.
			delay = ra + rand.N(ra/4+time.Millisecond)
		}
		// Drain so the connection is reusable, then drop the response.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		if delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
		if pol.Logf != nil {
			pol.Logf("retrying POST %s in %v (attempt %d/%d: %s)",
				url, delay.Round(time.Millisecond), attempt, pol.MaxAttempts, resp.Status)
		}
		time.Sleep(delay)
		backoff *= 2
		if backoff > pol.MaxDelay {
			backoff = pol.MaxDelay
		}
	}
}

// retryableResponse reports whether resp proves the request was refused
// without effect and may be resent. A 503 carrying HeaderMaybeApplied is
// explicitly NOT such proof — the server is saying the request may have
// committed before the refusal — so it is handed back to the caller intact.
func retryableResponse(resp *http.Response) bool {
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return resp.Header.Get(HeaderMaybeApplied) == ""
	}
	return false
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an HTTP
// date.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}
