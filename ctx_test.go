package bicc

import (
	"context"
	"errors"
	"testing"
	"time"
)

// ctxTestGraph builds a moderately large random connected graph once; it is
// big enough that a full run takes many cancellation-poll intervals on every
// algorithm, so mid-run cancellation is actually exercised.
var ctxTestGraph = func() *Graph {
	g, err := RandomConnectedGraph(60_000, 240_000, 42)
	if err != nil {
		panic(err)
	}
	return g
}()

var ctxAlgos = Algorithms()

func TestCtxNilContextStillComputes(t *testing.T) {
	res, err := BiconnectedComponentsCtx(nil, ctxTestGraph, &Options{Algorithm: TVOpt})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents < 1 {
		t.Fatalf("NumComponents = %d", res.NumComponents)
	}
}

func TestCtxPreCanceledReturnsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range ctxAlgos {
		start := time.Now()
		res, err := BiconnectedComponentsCtx(ctx, ctxTestGraph, &Options{Algorithm: algo})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res != nil {
			t.Errorf("%v: got non-nil result on canceled context", algo)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%v: pre-canceled run took %v", algo, d)
		}
	}
}

func TestCtxCancelMidRun(t *testing.T) {
	for _, algo := range ctxAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			res, err := BiconnectedComponentsCtx(ctx, ctxTestGraph, &Options{Algorithm: algo})
			if err == nil {
				// The run may legitimately win the race and finish first;
				// then the result must be complete and correct.
				if res == nil || res.NumComponents < 1 {
					t.Fatalf("finished run returned bad result %+v", res)
				}
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("canceled run returned a non-nil result")
			}
		})
	}
}

func TestCtxDeadlineExceeded(t *testing.T) {
	for _, algo := range ctxAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := BiconnectedComponentsCtx(ctx, ctxTestGraph, &Options{Algorithm: algo})
			if err == nil {
				if res == nil || res.NumComponents < 1 {
					t.Fatalf("finished run returned bad result %+v", res)
				}
				return
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			// "Promptly": well under the full-run time for an uncancelable
			// implementation; generous bound to avoid CI flakes.
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("deadline-exceeded run took %v", d)
			}
		})
	}
}

func TestCtxViaOptionsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BiconnectedComponents(ctxTestGraph, &Options{Algorithm: TVOpt, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via Options.Context", err)
	}
}

func TestNewGraphNormalizedDoesNotMutateInput(t *testing.T) {
	edges := []Edge{{U: 3, V: 3}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 1}}
	orig := append([]Edge(nil), edges...)
	g, loops, dups, err := NewGraphNormalized(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if loops != 1 || dups != 2 {
		t.Fatalf("loops=%d dups=%d, want 1 and 2", loops, dups)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	for i := range edges {
		if edges[i] != orig[i] {
			t.Fatalf("caller's slice mutated at %d: %v != %v", i, edges[i], orig[i])
		}
	}
	// The graph must not alias the caller's slice either: scribbling over the
	// input after construction must not corrupt the graph.
	for i := range edges {
		edges[i] = Edge{U: 0, V: 0}
	}
	if got := g.Edges()[0]; got != orig[1] {
		t.Fatalf("graph aliases caller slice: edge 0 became %v", got)
	}
}
