package par

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanicError runs fn and returns the *PanicError it panics with, or
// nil if fn returns normally. A panic with any other value fails the test.
func recoverPanicError(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		var ok bool
		pe, ok = v.(*PanicError)
		if !ok {
			t.Fatalf("panic value is %T (%v), want *PanicError", v, v)
		}
	}()
	fn()
	return nil
}

func TestForRethrowsWorkerPanicAsPanicError(t *testing.T) {
	sentinel := errors.New("boom")
	pe := recoverPanicError(t, func() {
		For(4, 1000, func(lo, hi int) {
			if lo <= 500 && 500 < hi {
				panic(sentinel)
			}
		})
	})
	if pe == nil {
		t.Fatal("For did not re-raise the worker panic")
	}
	if !errors.Is(pe, sentinel) {
		t.Errorf("PanicError does not unwrap to the panic value: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	if !bytes.Contains(pe.Stack, []byte("panic_test")) {
		t.Errorf("stack trace does not mention the panicking frame:\n%s", pe.Stack)
	}
}

func TestForAllWorkersJoinBeforeRethrow(t *testing.T) {
	// Every worker increments done on exit; if For re-raised before joining,
	// the count observed after recover could be short.
	var done atomic.Int64
	p := 8
	recoverPanicError(t, func() {
		ForWorker(p, p, func(worker, lo, hi int) {
			defer done.Add(1)
			if worker == 3 {
				panic("one worker dies")
			}
		})
	})
	if got := done.Load(); got != int64(p) {
		t.Errorf("joined %d workers before rethrow, want %d", got, p)
	}
}

// panicOnFirstChunk returns a ForDynamic body over [0, 1<<20) in chunks of
// 64 that counts its iterations and panics in chunk 0. Every other chunk
// waits until chunk 0 has started to panic and then sleeps, so the rest of
// the range (16383 chunks over 3 workers) takes far longer than any
// deschedule of the panicking worker: the siblings can only finish it if
// they ignore the recorded panic.
func panicOnFirstChunk(iters *atomic.Int64, msg string) func(lo, hi int) {
	dying := make(chan struct{})
	return func(lo, hi int) {
		iters.Add(int64(hi - lo))
		if lo == 0 {
			close(dying)
			panic(msg)
		}
		<-dying
		time.Sleep(100 * time.Microsecond)
	}
}

func TestForDynamicPanicStopsClaimingAndRethrows(t *testing.T) {
	var iters atomic.Int64
	pe := recoverPanicError(t, func() {
		ForDynamic(4, 1<<20, 64, panicOnFirstChunk(&iters, "first chunk dies"))
	})
	if pe == nil {
		t.Fatal("ForDynamic did not re-raise the worker panic")
	}
	// Siblings stop claiming once the panic is recorded, so the loop must
	// finish well short of the full range.
	if got := iters.Load(); got >= 1<<20 {
		t.Errorf("loop ran to completion (%d iterations) despite the panic", got)
	}
}

func TestRunRethrowsFirstPanicOnly(t *testing.T) {
	pe := recoverPanicError(t, func() {
		Run(4, func(worker int) { panic(fmt.Sprintf("worker %d", worker)) })
	})
	if pe == nil {
		t.Fatal("Run did not re-raise")
	}
	if pe.Worker < 0 || pe.Worker > 3 {
		t.Errorf("PanicError.Worker = %d, want a real worker index", pe.Worker)
	}
	if want := fmt.Sprintf("worker %d", pe.Worker); pe.Value != want {
		t.Errorf("PanicError.Value = %v, want %q (value and worker id must agree)", pe.Value, want)
	}
}

func TestNestedPanicErrorNotDoubleWrapped(t *testing.T) {
	// A panic crossing two fork-join layers must surface as the original
	// PanicError, not a PanicError wrapping a PanicError.
	sentinel := errors.New("inner")
	pe := recoverPanicError(t, func() {
		Run(2, func(outer int) {
			For(2, 10, func(lo, hi int) { panic(sentinel) })
		})
	})
	if pe == nil {
		t.Fatal("nested panic did not surface")
	}
	if _, nested := pe.Value.(*PanicError); nested {
		t.Errorf("PanicError was double-wrapped: %v", pe)
	}
	if !errors.Is(pe, sentinel) {
		t.Errorf("nested panic lost its value: %v", pe)
	}
}

// trippedByPanic returns the *PanicError c was tripped with, failing the
// test unless it names one of the call's p workers.
func trippedByPanic(t *testing.T, c *Canceler, p int) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(c.Err(), &pe) {
		t.Fatalf("p=%d: cancellation cause is %v, want *PanicError", p, c.Err())
	}
	if pe.Worker < 0 || pe.Worker >= p {
		t.Errorf("p=%d: PanicError.Worker = %d, want a worker index in [0, %d)", p, pe.Worker, p)
	}
	return pe
}

func TestForCRecordsPanicInCanceler(t *testing.T) {
	for _, p := range []int{1, 4} {
		c := &Canceler{}
		if pe := recoverPanicError(t, func() {
			ForC(c, p, 1000, func(lo, hi int) {
				if lo == 0 {
					panic("chunk dies")
				}
			})
		}); pe != nil {
			t.Fatalf("p=%d: ForC re-raised %v instead of returning", p, pe)
		}
		if pe := trippedByPanic(t, c, p); pe.Value != "chunk dies" {
			t.Errorf("p=%d: PanicError.Value = %v", p, pe.Value)
		}
	}
}

func TestForDynamicCRecordsPanicAndStops(t *testing.T) {
	for _, p := range []int{1, 4} {
		c := &Canceler{}
		var iters atomic.Int64
		if pe := recoverPanicError(t, func() {
			ForDynamicC(c, p, 1<<20, 64, panicOnFirstChunk(&iters, "chunk dies"))
		}); pe != nil {
			t.Fatalf("p=%d: ForDynamicC re-raised %v instead of returning", p, pe)
		}
		trippedByPanic(t, c, p)
		// At p = 1 the whole range is one chunk on the caller.
		if got := iters.Load(); p > 1 && got >= 1<<20 {
			t.Errorf("p=%d: loop ran to completion (%d iterations) despite the panic", p, got)
		}
	}
}

func TestRunCReturnsPanicAndCancels(t *testing.T) {
	for _, p := range []int{1, 4} {
		c := &Canceler{}
		dying := p / 2
		var pe *PanicError
		if re := recoverPanicError(t, func() {
			pe = RunC(c, p, func(worker int) {
				if worker == dying {
					panic("worker dies")
				}
				// Siblings spin until cancellation, as a work-stealing loop would.
				for c.Err() == nil {
				}
			})
		}); re != nil {
			t.Fatalf("p=%d: RunC re-raised %v instead of returning", p, re)
		}
		if pe == nil {
			t.Fatalf("p=%d: RunC returned nil for a panicking worker", p)
		}
		if pe.Worker != dying || pe.Value != "worker dies" {
			t.Errorf("p=%d: RunC returned %+v, want worker %d", p, pe, dying)
		}
		if cause := trippedByPanic(t, c, p); cause != pe {
			t.Errorf("p=%d: canceler cause %v is not the returned PanicError", p, cause)
		}
	}
}

func TestRunCNoPanic(t *testing.T) {
	c := &Canceler{}
	if pe := RunC(c, 4, func(worker int) {}); pe != nil {
		t.Errorf("RunC returned %v for a clean run", pe)
	}
	if c.Err() != nil {
		t.Errorf("clean RunC canceled: %v", c.Err())
	}
}

func TestAsPanicErrorPassthrough(t *testing.T) {
	orig := &PanicError{Value: "x", Worker: 7, Stack: []byte("s")}
	if got := AsPanicError(-1, orig); got != orig {
		t.Error("AsPanicError rewrapped an existing PanicError")
	}
	if got := AsPanicError(3, "y"); got.Worker != 3 || got.Value != "y" {
		t.Errorf("AsPanicError(3, y) = %+v", got)
	}
}

func TestPanicErrorUnwrapNonError(t *testing.T) {
	pe := &PanicError{Value: 42}
	if pe.Unwrap() != nil {
		t.Error("Unwrap of a non-error panic value should be nil")
	}
	if pe.Error() == "" {
		t.Error("empty Error()")
	}
}
