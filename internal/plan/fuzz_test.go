package plan

import (
	"testing"

	"bicc/internal/graph"
)

// checkFeatures asserts the invariants Extract promises on any input: total
// (no panic, checked by arriving here) and all classes in range.
func checkFeatures(t *testing.T, g *graph.EdgeList, f Features) {
	t.Helper()
	if f.N != int(g.N) || f.M != len(g.Edges) {
		t.Fatalf("dimensions: got n=%d m=%d, want n=%d m=%d", f.N, f.M, g.N, len(g.Edges))
	}
	if f.SizeClass < 0 || f.SizeClass > 8 {
		t.Fatalf("size class %d out of range", f.SizeClass)
	}
	if f.DensityClass < 0 || f.DensityClass > 2 {
		t.Fatalf("density class %d out of range", f.DensityClass)
	}
	if f.DiamClass < DiamLow || f.DiamClass > DiamHigh {
		t.Fatalf("diam class %d out of range", f.DiamClass)
	}
	if f.Depth < 0 || (f.N > 0 && int(f.Depth) >= f.N) {
		t.Fatalf("depth %d impossible for n=%d", f.Depth, f.N)
	}
	if f.Density < 0 {
		t.Fatalf("negative density %g", f.Density)
	}
}

// TestExtractShapes covers the named degenerate shapes directly, so the
// invariants hold even when the fuzzer only runs its seed corpus.
func TestExtractShapes(t *testing.T) {
	star := func(n int32) *graph.EdgeList {
		g := &graph.EdgeList{N: n}
		for v := int32(1); v < n; v++ {
			g.Edges = append(g.Edges, graph.Edge{U: 0, V: v})
		}
		return g
	}
	chain := func(n int32) *graph.EdgeList {
		g := &graph.EdgeList{N: n}
		for v := int32(1); v < n; v++ {
			g.Edges = append(g.Edges, graph.Edge{U: v - 1, V: v})
		}
		return g
	}
	cases := map[string]*graph.EdgeList{
		"empty":         {N: 0},
		"single-vertex": {N: 1},
		"edgeless":      {N: 100},
		"self-loop":     {N: 1, Edges: []graph.Edge{{U: 0, V: 0}}},
		"parallel":      {N: 2, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 0}}},
		"star":          star(200),
		"chain":         chain(300),
		"disconnected": {N: 10, Edges: []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 5},
		}},
		"isolated-zero": {N: 5, Edges: []graph.Edge{{U: 3, V: 4}}},
	}
	for name, g := range cases {
		f := Extract(2, g)
		checkFeatures(t, g, f)
		switch name {
		case "chain":
			if f.DiamClass != DiamHigh {
				t.Errorf("chain: diam class %d, want high", f.DiamClass)
			}
		case "star":
			if f.DiamClass != DiamLow {
				t.Errorf("star: diam class %d, want low", f.DiamClass)
			}
		case "empty", "single-vertex", "edgeless":
			if f.Depth != 0 {
				t.Errorf("%s: depth=%d, want 0", name, f.Depth)
			}
		}
	}
}

// FuzzFeatures decodes arbitrary bytes into a graph and asserts Extract's
// invariants. The encoding: first two bytes pick n in [0, 512), the rest
// pair up into edges with endpoints reduced mod n — every byte string is a
// valid graph, including multi-edges, self-loops, and isolated vertices.
func FuzzFeatures(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 0, 0, 0})                         // single vertex, self-loop
	f.Add([]byte{0, 16, 0, 1, 1, 2, 2, 3})            // short chain
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // star-ish
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &graph.EdgeList{}
		if len(data) >= 2 {
			g.N = int32(data[0])<<1 | int32(data[1])>>7
			data = data[2:]
		}
		if g.N > 0 {
			for i := 0; i+1 < len(data); i += 2 {
				g.Edges = append(g.Edges, graph.Edge{
					U: int32(data[i]) % g.N,
					V: int32(data[i+1]) % g.N,
				})
			}
		}
		for _, p := range []int{1, 2, 4} {
			checkFeatures(t, g, Extract(p, g))
		}
	})
}
