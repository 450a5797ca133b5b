package bicc

import (
	"context"
	"errors"
	"testing"
	"time"

	"bicc/internal/faults"
	"bicc/internal/par"
)

// pipelinePanicPlan panics at every hit of core.pipeline — a site every
// parallel engine crosses between phases and the sequential engine never
// does, so the fallback path stays clean.
func pipelinePanicPlan() *faults.Plan {
	return &faults.Plan{Seed: 1, Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, "core.pipeline")}}
}

// TestEveryParallelEngineCrossesPipeline holds pipelinePanicPlan to its
// premise: under a persistent panic at core.pipeline, every parallel engine
// must come back degraded to sequential, with that panic as the cause.
func TestEveryParallelEngineCrossesPipeline(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	for _, algo := range parallelAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			faults.Activate(pipelinePanicPlan())
			res, err := BiconnectedComponentsCtx(context.Background(), g,
				&Options{Algorithm: algo, Procs: 2, Fallback: FallbackSequential})
			faults.Deactivate()
			if err != nil {
				t.Fatalf("fallback did not absorb the fault: %v", err)
			}
			if !res.Degraded {
				t.Fatal("result not degraded: the engine never crossed core.pipeline")
			}
			var ip *faults.InjectedPanic
			if !errors.As(res.DegradedCause, &ip) || ip.Site != "core.pipeline" {
				t.Errorf("DegradedCause = %v, want the panic injected at core.pipeline", res.DegradedCause)
			}
			if res.NumComponents != 2 {
				t.Errorf("NumComponents = %d, want 2", res.NumComponents)
			}
		})
	}
}

func TestFallbackSequentialOnPersistentPanic(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	faults.Activate(pipelinePanicPlan())
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: TVOpt, Procs: 4, Fallback: FallbackSequential})
	faults.Deactivate()
	if err != nil {
		t.Fatalf("fallback did not absorb the fault: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if res.Algorithm != Sequential {
		t.Errorf("degraded result reports %v, want sequential", res.Algorithm)
	}
	var ip *faults.InjectedPanic
	if !errors.As(res.DegradedCause, &ip) {
		t.Errorf("DegradedCause = %v, want the injected panic", res.DegradedCause)
	}
	if res.NumComponents != 2 {
		t.Errorf("NumComponents = %d, want 2", res.NumComponents)
	}
}

func TestFallbackRetryAbsorbsTransientFault(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	// One panic only: the first attempt dies, the retry runs clean, and the
	// result must NOT be degraded — the requested engine produced it.
	r := faults.NewRule(faults.KindPanic, "core.pipeline")
	r.Count = 1
	faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: TVOpt, Procs: 4, Fallback: FallbackSequential})
	faults.Deactivate()
	if err != nil {
		t.Fatalf("retry did not absorb a one-shot fault: %v", err)
	}
	if res.Degraded {
		t.Error("transient fault degraded the result; the retry should have handled it")
	}
	if res.Algorithm != TVOpt {
		t.Errorf("retry ran %v, want tv-opt", res.Algorithm)
	}
	if res.NumComponents != 2 {
		t.Errorf("NumComponents = %d, want 2", res.NumComponents)
	}
}

func TestFallbackNoneReturnsTypedError(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	faults.Activate(pipelinePanicPlan())
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: TVOpt, Procs: 4})
	faults.Deactivate()
	if err == nil {
		t.Fatalf("FallbackNone swallowed the fault: %+v", res)
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error %T is not a contained panic: %v", err, err)
	}
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) || ip.Site != "core.pipeline" {
		t.Errorf("error does not unwrap to the injected panic: %v", err)
	}
}

func TestAttemptTimeoutDegradesToSequential(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	// Stall every pipeline checkpoint far past the per-attempt budget; both
	// attempts must be canceled with ErrAttemptTimeout and the sequential
	// engine (free of the delay site) must produce the answer.
	r := faults.NewRule(faults.KindDelay, "core.pipeline")
	r.Delay = 100 * time.Millisecond
	faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: TVFilter, Procs: 4, Fallback: FallbackSequential, AttemptTimeout: 10 * time.Millisecond})
	faults.Deactivate()
	if err != nil {
		t.Fatalf("attempt timeout was not degraded: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if !errors.Is(res.DegradedCause, ErrAttemptTimeout) {
		t.Errorf("DegradedCause = %v, want ErrAttemptTimeout", res.DegradedCause)
	}
	if res.NumComponents != 2 {
		t.Errorf("NumComponents = %d, want 2", res.NumComponents)
	}
}

func TestFallbackNeverRetriesDeadCaller(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BiconnectedComponentsCtx(ctx, g,
		&Options{Algorithm: TVOpt, Fallback: FallbackSequential})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled caller got %v, want context.Canceled", err)
	}
}

func TestFallbackSpuriousCancellationDegrades(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t)
	// An internal spurious cancellation (not the caller's context) is an
	// engine fault like any other: retried, then degraded.
	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindCancel, "core.pipeline")}})
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: TVSMP, Procs: 4, Fallback: FallbackSequential})
	faults.Deactivate()
	if err != nil {
		t.Fatalf("spurious cancellation escaped the supervisor: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if !errors.Is(res.DegradedCause, faults.ErrInjected) {
		t.Errorf("DegradedCause = %v, want ErrInjected", res.DegradedCause)
	}
	if res.NumComponents != 2 {
		t.Errorf("NumComponents = %d, want 2", res.NumComponents)
	}
}
