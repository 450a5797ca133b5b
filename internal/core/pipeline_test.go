package core

import (
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
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

// The presets must match their documented configurations' behavior.
func TestPresetsMatchCustom(t *testing.T) {
	g := gen.RandomConnected(200, 700, 14)
	seq := Sequential(g)
	presets := map[string]Config{
		"tv-smp":    TVSMPConfig(),
		"tv-opt":    TVOptConfig(),
		"tv-filter": TVFilterConfig(),
	}
	for name, cfg := range presets {
		got, err := Custom(2, graph.Wrap(g), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumComp != seq.NumComp || !conncomp.SamePartition(got.EdgeComp, seq.EdgeComp) {
			t.Errorf("%s: diverges from sequential", name)
		}
	}
}
