package core

import (
	"errors"
	"slices"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
)

func TestCustomRejectsFilterWithoutBFS(t *testing.T) {
	g := gen.Cycle(5)
	for _, span := range []SpanningTreeKind{SpanSV, SpanWorkStealing} {
		if _, err := Custom(2, graph.Wrap(g), Config{SpanningTree: span, Filter: true}); err == nil {
			t.Errorf("filter with spanning tree kind %d accepted (Lemma 1 requires BFS)", span)
		}
	}
}

func TestCustomRejectsUnknownKind(t *testing.T) {
	if _, err := Custom(2, graph.Wrap(gen.Cycle(4)), Config{SpanningTree: SpanningTreeKind(99)}); err == nil {
		t.Error("unknown spanning tree kind accepted")
	}
}

// TestCustomAllConfigurations cross-validates every valid engine
// combination against the sequential baseline.
func TestCustomAllConfigurations(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"sv", Config{SpanningTree: SpanSV}},
		{"ws", Config{SpanningTree: SpanWorkStealing}},
		{"bfs", Config{SpanningTree: SpanBFS}},
		{"bfs-filter", Config{SpanningTree: SpanBFS, Filter: true}},
	}
	inputs := map[string]*graph.EdgeList{
		"random":       gen.Random(150, 400, 11),
		"sparse":       gen.Random(150, 100, 12),
		"dense":        gen.Dense(35, 0.7, 13),
		"chain":        gen.Chain(60),
		"disconnected": gen.Disconnected(gen.Cycle(5), gen.Star(6), &graph.EdgeList{N: 2}),
	}
	for _, tc := range configs {
		for gname, g := range inputs {
			want := Sequential(g)
			got, err := Custom(2, graph.Wrap(g), tc.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, gname, err)
			}
			if got.NumComp != want.NumComp {
				t.Errorf("%s/%s: NumComp=%d, want %d", tc.name, gname, got.NumComp, want.NumComp)
				continue
			}
			if len(g.Edges) > 0 && !conncomp.SamePartition(got.EdgeComp, want.EdgeComp) {
				t.Errorf("%s/%s: partition differs", tc.name, gname)
			}
		}
	}
}

// TestPresetsMatchCustom holds each preset to its documented configuration
// and to the contract every engine keeps, one subtest per clause: labels
// byte-identical to the sequential engine's at one to three workers
// (labels), and so in every four-worker run, whatever tree the workers'
// races build (deterministic); a tripped canceler's cause returned as the
// error (cancel); and a panic inside the pipeline returned as a
// *par.PanicError (panic).
func TestPresetsMatchCustom(t *testing.T) {
	documented := map[string]Config{
		"tv-smp":    {SpanningTree: SpanSV},
		"tv-opt":    {SpanningTree: SpanWorkStealing},
		"tv-filter": {SpanningTree: SpanBFS, Filter: true},
		"fast-bcc":  {SpanningTree: SpanBFS},
	}
	graphs := []*graph.EdgeList{
		gen.RandomConnected(200, 700, 14), gen.RandomConnected(300, 1200, 21), gen.RandomConnected(400, 1600, 17),
	}
	want := make([]*Result, len(graphs))
	for i, g := range graphs {
		want[i] = Sequential(g)
	}
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			if pr.cfg != documented[pr.name] {
				t.Errorf("preset is %+v, documented as %+v", pr.cfg, documented[pr.name])
			}
			// matches runs the preset on graphs[i] with p workers and holds
			// its labels to sequential's.
			matches := func(t *testing.T, i, p int) {
				t.Helper()
				got, err := Custom(p, graph.Wrap(graphs[i]), pr.cfg)
				if err != nil {
					t.Fatalf("graph %d p=%d: %v", i, p, err)
				}
				if got.NumComp != want[i].NumComp || !slices.Equal(got.EdgeComp, want[i].EdgeComp) {
					t.Fatalf("graph %d p=%d: labels differ from sequential", i, p)
				}
			}
			t.Run("labels", func(t *testing.T) {
				for i := range graphs {
					for p := 1; p <= 3; p++ {
						matches(t, i, p)
					}
				}
			})
			t.Run("deterministic", func(t *testing.T) {
				for i := range graphs {
					for rep := 0; rep < 5; rep++ {
						matches(t, i, 4)
					}
				}
			})
			t.Run("cancel", func(t *testing.T) {
				cfg := pr.cfg
				cfg.Cancel = &par.Canceler{}
				cause := errors.New("stop now")
				cfg.Cancel.Cancel(cause)
				if _, err := Custom(2, graph.Wrap(graphs[0]), cfg); err != cause {
					t.Errorf("canceled run returned %v, want the cancellation cause", err)
				}
			})
			t.Run("panic", func(t *testing.T) {
				// An out-of-range edge makes the first phase index out of bounds.
				bad := &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 5}}}
				res, err := Custom(1, graph.Wrap(bad), pr.cfg)
				var pe *par.PanicError
				if res != nil || !errors.As(err, &pe) {
					t.Errorf("res=%v err=%v, want nil and a contained *par.PanicError", res, err)
				}
			})
		})
	}
}
