package fastbcc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/fastbcc"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// mustEqual asserts got is byte-identical to the sequential engine's
// canonical labeling of g.
func mustEqual(t *testing.T, name string, g *graph.EdgeList, got *core.Result) {
	t.Helper()
	want, err := core.SequentialT(nil, nil, graph.Wrap(g))
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	if got.NumComp != want.NumComp {
		t.Fatalf("%s: NumComp=%d, sequential %d", name, got.NumComp, want.NumComp)
	}
	for i := range want.EdgeComp {
		if got.EdgeComp[i] != want.EdgeComp[i] {
			t.Fatalf("%s: edge %d labeled %d, sequential %d (edge %v)",
				name, i, got.EdgeComp[i], want.EdgeComp[i], g.Edges[i])
		}
	}
}

// TestFamilies runs the engine against the sequential oracle over every
// generator family, at several worker counts: structured meshes, dense
// blocks, bridge-heavy caterpillars and stars, block chains (many
// articulation points), trees (every edge a bridge), and disconnected
// unions of all of the above.
func TestFamilies(t *testing.T) {
	families := map[string]*graph.EdgeList{
		"random":       gen.RandomConnected(200, 600, 7),
		"random-dense": gen.RandomConnected(120, 2000, 8),
		"torus":        gen.Torus(10, 12),
		"caterpillar":  gen.Caterpillar(30, 4),
		"dense":        gen.Dense(40, 0.5, 11),
		"mesh":         gen.Mesh(9, 9),
		"chain":        gen.Chain(64),
		"cycle":        gen.Cycle(64),
		"star":         gen.Star(33),
		"binary-tree":  gen.BinaryTree(63),
		"block-chain":  gen.BlockChain(12, 6),
		"geometric":    gen.Geometric(150, 0.18, 5),
		"pref-attach":  gen.PreferentialAttachment(150, 3, 6),
		"disconnected": gen.Disconnected(gen.Cycle(10), gen.Chain(7), gen.Star(5), gen.Dense(12, 0.6, 3)),
		"empty":        {N: 0},
		"isolated":     {N: 5},
		"single-edge":  {N: 2, Edges: []graph.Edge{{U: 0, V: 1}}},
	}
	for name, g := range families {
		for _, p := range []int{1, 2, 4} {
			res, err := fastbcc.Run(p, graph.Wrap(g), fastbcc.Config{})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			mustEqual(t, fmt.Sprintf("%s p=%d", name, p), g, res)
		}
	}
}

// TestRandomDifferential hammers the engine with many small random graphs —
// the regime where every tricky fence/skeleton interaction shows up — at
// mixed densities, including graphs far below the connectivity threshold
// (many components, many bridges).
func TestRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20230101))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(40)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		seen := map[uint64]struct{}{}
		var edges []graph.Edge
		for len(edges) < m {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			k := graph.CanonKey(u, v)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		g := &graph.EdgeList{N: int32(n), Edges: edges}
		p := 1 + rng.Intn(4)
		res, err := fastbcc.Run(p, graph.Wrap(g), fastbcc.Config{})
		if err != nil {
			t.Fatalf("trial %d (n=%d m=%d p=%d): %v", trial, n, m, p, err)
		}
		mustEqual(t, fmt.Sprintf("trial %d (n=%d m=%d p=%d)", trial, n, m, p), g, res)
	}
}

// TestBridgeHeavy targets the fence/bridge special cases: trees decorated
// with sparse extra edges, so most tree edges are bridges (singleton
// skeleton components) while a few gain cycles.
func TestBridgeHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(60)
		var edges []graph.Edge
		for v := 1; v < n; v++ { // random tree
			edges = append(edges, graph.Edge{U: int32(rng.Intn(v)), V: int32(v)})
		}
		extra := rng.Intn(4)
		seen := map[uint64]struct{}{}
		for _, e := range edges {
			seen[graph.CanonKey(e.U, e.V)] = struct{}{}
		}
		for k := 0; k < extra; k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			key := graph.CanonKey(u, v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		g := &graph.EdgeList{N: int32(n), Edges: edges}
		res, err := fastbcc.Run(2, graph.Wrap(g), fastbcc.Config{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mustEqual(t, fmt.Sprintf("bridge trial %d (n=%d)", trial, n), g, res)
	}
}

// TestDeterministicAcrossProcs pins the canonicalization property the
// incremental layer depends on: whatever BFS tree the parallel races
// produce, the densified EdgeComp is identical run to run.
func TestDeterministicAcrossProcs(t *testing.T) {
	g := gen.RandomConnected(300, 1200, 21)
	base, err := fastbcc.Run(1, graph.Wrap(g), fastbcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		res, err := fastbcc.Run(4, graph.Wrap(g), fastbcc.Config{})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		for i := range base.EdgeComp {
			if res.EdgeComp[i] != base.EdgeComp[i] {
				t.Fatalf("rep %d: edge %d labeled %d, first run %d", rep, i, res.EdgeComp[i], base.EdgeComp[i])
			}
		}
	}
}

// TestCancellation trips the canceler mid-run and asserts the cause comes
// back as the error — the contract the supervisor's retry path needs.
func TestCancellation(t *testing.T) {
	g := gen.RandomConnected(2000, 8000, 3)
	cn := &par.Canceler{}
	cause := fmt.Errorf("stop now")
	cn.Cancel(cause)
	if _, err := fastbcc.Run(2, graph.Wrap(g), fastbcc.Config{Cancel: cn}); err != cause {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

// TestPanicContained proves Run is a fault boundary: a panic inside the
// pipeline surfaces as a *par.PanicError, never as a crash.
func TestPanicContained(t *testing.T) {
	// An out-of-range edge makes the CSR conversion index out of bounds.
	g := &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 5}}}
	res, err := fastbcc.Run(1, graph.Wrap(g), fastbcc.Config{})
	if res != nil || err == nil {
		t.Fatalf("res=%v err=%v, want nil + contained panic", res, err)
	}
	if _, ok := err.(*par.PanicError); !ok {
		t.Fatalf("err is %T, want *par.PanicError", err)
	}
}

// TestPhases asserts the run records the engine's six pipeline phases in
// execution order, so bicc_phase_seconds and bccbench -fig 4 get real rows,
// preceded by the CSR conversion on the graph's first run only.
func TestPhases(t *testing.T) {
	g := graph.Wrap(gen.RandomConnected(500, 2000, 13))
	want := []string{
		core.PhaseSpanningTree, core.PhaseRoot, core.PhaseLowHigh,
		core.PhaseSkeleton, core.PhaseConnComp, core.PhaseLabelEdge,
	}
	for run, want := range [][]string{append([]string{core.PhaseToCSR}, want...), want} {
		res, err := fastbcc.Run(2, g, fastbcc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Phases) != len(want) {
			t.Fatalf("run %d recorded %d phases, want %d: %v", run, len(res.Phases), len(want), res.Phases)
		}
		for i, ph := range res.Phases {
			if ph.Name != want[i] {
				t.Fatalf("run %d: phase %d is %q, want %q", run, i, ph.Name, want[i])
			}
		}
	}
}

// TestPartitionAgainstTV cross-checks against a parallel engine too (not
// just the DFS oracle): the partitions must agree edge for edge.
func TestPartitionAgainstTV(t *testing.T) {
	g := gen.RandomConnected(400, 1600, 17)
	a, err := fastbcc.Run(3, graph.Wrap(g), fastbcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Custom(3, graph.Wrap(g), core.TVFilterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !conncomp.SamePartition(a.EdgeComp, b.EdgeComp) {
		t.Fatal("fast-bcc and tv-filter disagree on the block partition")
	}
}
