package par

import (
	"fmt"
	"runtime/debug"

	"bicc/internal/obs"
)

// PanicError wraps a panic recovered from a parallel worker goroutine. The
// runtime converts every worker panic into one of these so that a bug in a
// loop body can never crash the process from an unjoined goroutine: the
// canceler-aware primitives (ForC, ForDynamicC, RunC) record it as the
// cancellation cause, and the plain primitives re-raise it on the calling
// goroutine where an ordinary recover applies.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Worker is the index of the worker that panicked, or -1 for a panic
	// recovered outside the runtime's workers.
	Worker int
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery point.
	Stack []byte
}

// Error formats the panic with its origin; the stack is available separately
// so logs can choose their verbosity.
func (e *PanicError) Error() string {
	if e.Worker >= 0 {
		return fmt.Sprintf("par: panic in worker %d: %v", e.Worker, e.Value)
	}
	return fmt.Sprintf("par: panic: %v", e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so callers can
// match injected or sentinel errors through errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsPanicError wraps an arbitrary recovered value, passing existing
// *PanicError values through unchanged (a re-raised worker panic keeps its
// original stack and worker id).
func AsPanicError(worker int, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe // a re-raised panic keeps its identity and is not recounted
	}
	if obs.Enabled() {
		mPanics.Inc()
	}
	return &PanicError{Value: v, Worker: worker, Stack: debug.Stack()}
}
