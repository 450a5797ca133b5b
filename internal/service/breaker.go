package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int32

const (
	// BreakerClosed: traffic flows normally; consecutive faults are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the protected path is presumed broken; callers are routed
	// around it until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is allowed through to test recovery; its
	// outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String names the state for /healthz and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-algorithm circuit breaker: after threshold consecutive
// engine faults it opens, routing queries for that algorithm straight to the
// sequential engine instead of burning workers on a path that keeps dying.
// After cooldown one probe request is let through; a healthy probe closes
// the breaker, a faulting one re-opens it for another cooldown.
type Breaker struct {
	mu          sync.Mutex
	state       BreakerState
	consecutive int       // faults since the last success (closed state)
	openedAt    time.Time // when the breaker last opened
	probing     bool      // a half-open probe is in flight

	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	opens atomic.Int64 // total closed/half-open -> open transitions
}

// NewBreaker returns a closed breaker opening after threshold consecutive
// faults (min 1) and probing after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 15 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether the protected (parallel) path may be used for this
// request. When the breaker is open past its cooldown, the first caller is
// admitted as the half-open probe; everyone else is routed around until the
// probe's Record call settles the state.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	}
	return true
}

// Record reports the outcome of a request that Allow admitted to the
// protected path. fault must be true for engine faults (panic, error,
// degraded fallback) and false for clean results; caller-side cancellations
// should not be recorded at all.
func (b *Breaker) Record(fault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if !fault {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.open()
		}
	case BreakerHalfOpen:
		b.probing = false
		if fault {
			b.open()
			return
		}
		b.state = BreakerClosed
		b.consecutive = 0
	case BreakerOpen:
		// A straggler from before the breaker opened; its outcome carries no
		// information the breaker still needs.
	}
}

// open transitions to BreakerOpen. Callers hold b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.probing = false
	b.consecutive = 0
	b.opens.Add(1)
}

// State returns the current state, advancing open -> half-open visibility is
// not needed here: the transition happens lazily in Allow.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns the total number of times the breaker has opened.
func (b *Breaker) Opens() int64 { return b.opens.Load() }
