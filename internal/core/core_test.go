package core

import (
	"math/rand"
	"slices"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// fixtures returns graphs with known biconnectivity structure.
func fixtures() map[string]struct {
	g        *graph.EdgeList
	numComp  int // -1 means unknown (cross-validate only)
	numCuts  int
	numBrdgs int
} {
	return map[string]struct {
		g        *graph.EdgeList
		numComp  int
		numCuts  int
		numBrdgs int
	}{
		"single-edge": {gen.Chain(2), 1, 0, 1},
		"triangle":    {gen.Cycle(3), 1, 0, 0},
		"chain":       {gen.Chain(10), 9, 8, 9},
		"cycle":       {gen.Cycle(12), 1, 0, 0},
		"star":        {gen.Star(8), 7, 1, 7},
		"mesh":        {gen.Mesh(5, 6), 1, 0, 0},
		"binarytree":  {gen.BinaryTree(15), 14, 7, 14},
		"blockchain":  {gen.BlockChain(5, 4), 5, 4, 0},
		"bowtie": {&graph.EdgeList{N: 5, Edges: []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		}}, 2, 1, 0},
		"dense":        {gen.Dense(25, 0.7, 3), 1, 0, 0},
		"disconnected": {gen.Disconnected(gen.Cycle(4), gen.Chain(3), gen.Star(4)), -1, -1, -1},
		"isolated":     {&graph.EdgeList{N: 4}, 0, 0, 0},
		"empty":        {&graph.EdgeList{N: 0}, 0, 0, 0},
		"random":       {gen.RandomConnected(200, 600, 5), -1, -1, -1},
		"sparse":       {gen.Random(150, 160, 6), -1, -1, -1},
		"random-dense": {gen.RandomConnected(120, 2000, 8), -1, -1, -1},
		"torus":        {gen.Torus(10, 12), 1, 0, 0},
		"caterpillar":  {gen.Caterpillar(30, 4), -1, -1, -1},
		"geometric":    {gen.Geometric(150, 0.18, 5), -1, -1, -1},
		"pref-attach":  {gen.PreferentialAttachment(150, 3, 6), -1, -1, -1},
		"mixed":        {gen.Disconnected(gen.Cycle(10), gen.Chain(7), gen.Star(5), gen.Dense(12, 0.6, 3)), -1, -1, -1},
	}
}

type algo struct {
	name string
	run  func(p int, g *graph.EdgeList) (*Result, error)
}

// presets are the pipeline configurations of the four parallel engines,
// by engine name.
var presets = []struct {
	name string
	cfg  Config
}{
	{"tv-smp", TVSMPConfig()},
	{"tv-opt", TVOptConfig()},
	{"tv-filter", TVFilterConfig()},
	{"fast-bcc", FastBCCConfig()},
}

// algorithms binds every preset as a runner.
func algorithms() []algo {
	var out []algo
	for _, pr := range presets {
		cfg := pr.cfg
		out = append(out, algo{pr.name, func(p int, g *graph.EdgeList) (*Result, error) {
			return Custom(p, graph.Wrap(g), cfg)
		}})
	}
	return out
}

func TestKnownStructures(t *testing.T) {
	for name, fx := range fixtures() {
		seq := Sequential(fx.g)
		if fx.numComp >= 0 && seq.NumComp != fx.numComp {
			t.Errorf("%s: sequential NumComp=%d, want %d", name, seq.NumComp, fx.numComp)
		}
		if fx.numCuts >= 0 {
			if cuts := Articulation(fx.g, seq.EdgeComp); len(cuts) != fx.numCuts {
				t.Errorf("%s: %d articulation points, want %d (%v)", name, len(cuts), fx.numCuts, cuts)
			}
		}
		if fx.numBrdgs >= 0 {
			if br := Bridges(fx.g, seq.EdgeComp, seq.NumComp); len(br) != fx.numBrdgs {
				t.Errorf("%s: %d bridges, want %d", name, len(br), fx.numBrdgs)
			}
		}
	}
}

// TestParallelMatchesSequential holds every preset to the sequential
// labels, byte for byte, on every fixture at several worker counts; one
// subtest per preset.
func TestParallelMatchesSequential(t *testing.T) {
	fxs := fixtures()
	want := map[string]*Result{}
	for name, fx := range fxs {
		want[name] = Sequential(fx.g)
	}
	for _, a := range algorithms() {
		t.Run(a.name, func(t *testing.T) {
			for name, fx := range fxs {
				for _, p := range []int{1, 2, 4} {
					got, err := a.run(p, fx.g)
					if err != nil {
						t.Fatalf("%s p=%d: %v", name, p, err)
					}
					if got.NumComp != want[name].NumComp || !slices.Equal(got.EdgeComp, want[name].EdgeComp) {
						t.Errorf("%s p=%d: %d blocks, labels differ from sequential's %d",
							name, p, got.NumComp, want[name].NumComp)
					}
				}
			}
		})
	}
}

// TestRandomizedCrossValidation holds every preset to the sequential labels,
// byte for byte, on many small random graphs at 1–4 workers, one subtest
// per preset and input kind: random is G(n, m) at every density up to
// complete, so also with many components and bridges; bridge-heavy is
// random trees with at most three extra edges, where most tree edges are
// bridges and a few gain cycles.
func TestRandomizedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var random, bridgeHeavy []*graph.EdgeList
	for trial := 0; trial < 440; trial++ {
		n := 2 + rng.Intn(40)
		if trial < 40 {
			n = 2 + rng.Intn(100)
		}
		random = append(random, gen.Random(n, rng.Intn(n*(n-1)/2+1), int64(trial*13+1)))
	}
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(60)
		g := &graph.EdgeList{N: int32(n)}
		for v := 1; v < n; v++ {
			g.Edges = append(g.Edges, graph.Edge{U: int32(rng.Intn(v)), V: int32(v)})
		}
		seen := map[uint64]bool{}
		for _, e := range g.Edges {
			seen[graph.CanonKey(e.U, e.V)] = true
		}
		for k := rng.Intn(4); k > 0; k-- {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if key := graph.CanonKey(u, v); u != v && !seen[key] {
				seen[key] = true
				g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
			}
		}
		bridgeHeavy = append(bridgeHeavy, g)
	}
	kinds := []struct {
		name   string
		inputs []*graph.EdgeList
		want   []*Result
	}{{name: "random", inputs: random}, {name: "bridge-heavy", inputs: bridgeHeavy}}
	for k := range kinds {
		for _, g := range kinds[k].inputs {
			kinds[k].want = append(kinds[k].want, Sequential(g))
		}
	}
	for _, a := range algorithms() {
		t.Run(a.name, func(t *testing.T) {
			for _, kind := range kinds {
				t.Run(kind.name, func(t *testing.T) {
					for i, g := range kind.inputs {
						want, p := kind.want[i], 1+i%4
						got, err := a.run(p, g)
						if err != nil {
							t.Fatalf("input %d p=%d: %v", i, p, err)
						}
						if got.NumComp != want.NumComp || !slices.Equal(got.EdgeComp, want.EdgeComp) {
							t.Fatalf("input %d p=%d (n=%d m=%d): %d blocks, labels differ from sequential's %d",
								i, p, g.N, len(g.Edges), got.NumComp, want.NumComp)
						}
					}
				})
			}
		})
	}
}

// articulationOracle counts connected components after removing v.
func articulationOracle(g *graph.EdgeList, v int32) bool {
	// Count components among remaining vertices.
	sub := &graph.EdgeList{N: g.N}
	for _, e := range g.Edges {
		if e.U != v && e.V != v {
			sub.Edges = append(sub.Edges, e)
		}
	}
	before := conncomp.Count(conncomp.UnionFind(g.N, g.Edges))
	afterLabels := conncomp.UnionFind(sub.N, sub.Edges)
	// Discount v itself (always its own component after removal) and any
	// vertices that were already isolated.
	after := 0
	seen := map[int32]bool{}
	for u := int32(0); u < g.N; u++ {
		if u == v {
			continue
		}
		if !seen[afterLabels[u]] {
			seen[afterLabels[u]] = true
			after++
		}
	}
	// v was in some component; removing it leaves the rest of that
	// component plus all others. v is a cut vertex iff component count over
	// the remaining vertices exceeds before-1 (v's component must not have
	// been a singleton) ... simpler: compare with before adjusted for v
	// being isolated or not.
	deg := 0
	for _, e := range g.Edges {
		if e.U == v || e.V == v {
			deg++
		}
	}
	if deg == 0 {
		return false
	}
	return after > before
}

func TestArticulationAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(30)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial*7+3))
		res := Sequential(g)
		isCut := map[int32]bool{}
		for _, v := range Articulation(g, res.EdgeComp) {
			isCut[v] = true
		}
		for v := int32(0); v < g.N; v++ {
			if want := articulationOracle(g, v); want != isCut[v] {
				t.Fatalf("trial %d (n=%d m=%d): vertex %d cut=%v, oracle=%v",
					trial, n, m, v, isCut[v], want)
			}
		}
	}
}

// bridgeOracle: edge i is a bridge iff removing it disconnects its endpoints.
func bridgeOracle(g *graph.EdgeList, i int) bool {
	sub := &graph.EdgeList{N: g.N}
	for j, e := range g.Edges {
		if j != i {
			sub.Edges = append(sub.Edges, e)
		}
	}
	labels := conncomp.UnionFind(sub.N, sub.Edges)
	return labels[g.Edges[i].U] != labels[g.Edges[i].V]
}

func TestBridgesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(25)
		m := rng.Intn(2*n + 1)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := gen.Random(n, m, int64(trial*11+5))
		res := Sequential(g)
		isBridge := map[int32]bool{}
		for _, b := range Bridges(g, res.EdgeComp, res.NumComp) {
			isBridge[b] = true
		}
		for i := range g.Edges {
			if want := bridgeOracle(g, i); want != isBridge[int32(i)] {
				t.Fatalf("trial %d: edge %d bridge=%v, oracle=%v", trial, i, isBridge[int32(i)], want)
			}
		}
	}
}

func TestEveryEdgeInExactlyOneComponent(t *testing.T) {
	g := gen.RandomConnected(150, 450, 12)
	for _, a := range algorithms() {
		res, err := a.run(2, g)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.EdgeComp {
			if c < 0 || int(c) >= res.NumComp {
				t.Fatalf("%s: edge %d has component %d outside [0,%d)", a.name, i, c, res.NumComp)
			}
		}
	}
}

// TestPhasesRecorded asserts that every preset records the Fig. 4 phases
// in execution order, so bicc_phase_seconds and bccbench -fig 4 get real
// rows: TV's six steps, TV-filter's filtering after the tree, and the CSR
// conversion first on a graph's first run of an engine that reads it.
func TestPhasesRecorded(t *testing.T) {
	tv := []string{PhaseSpanningTree, PhaseEulerTour, PhaseRoot, PhaseLowHigh, PhaseLabelEdge, PhaseConnComp}
	phases := map[string][]string{
		"tv-smp":    tv,
		"tv-opt":    tv,
		"tv-filter": append([]string{PhaseSpanningTree, PhaseFiltering}, tv[1:]...),
		"fast-bcc":  tv,
	}
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			g := graph.Wrap(gen.RandomConnected(500, 2000, 13))
			first := phases[pr.name]
			if pr.cfg.SpanningTree != SpanSV {
				first = append([]string{PhaseToCSR}, first...)
			}
			for run, want := range [][]string{first, phases[pr.name]} {
				res, err := Custom(2, g, pr.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, ph := range res.Phases {
					names = append(names, ph.Name)
					if ph.Duration < 0 {
						t.Errorf("run %d: phase %s has negative duration", run, ph.Name)
					}
				}
				if !slices.Equal(names, want) {
					t.Errorf("run %d recorded %v, want %v", run, names, want)
				}
				if res.Total() <= 0 {
					t.Errorf("run %d: total duration not positive", run)
				}
				if pr.cfg.Filter && res.PhaseDuration(PhaseFiltering) <= 0 {
					t.Errorf("run %d: filtering phase has no duration", run)
				}
			}
		})
	}
}

func TestSequentialDeepChain(t *testing.T) {
	// The iterative DFS must survive a 200k-deep recursion-equivalent.
	g := gen.Chain(200_000)
	res := Sequential(g)
	if res.NumComp != 199_999 {
		t.Errorf("deep chain NumComp=%d, want 199999", res.NumComp)
	}
}

func TestDenseWooSahniStyle(t *testing.T) {
	// 70% and 90% of complete graphs (the Woo–Sahni regime) are biconnected
	// with overwhelming probability at this size.
	for _, frac := range []float64{0.7, 0.9} {
		g := gen.Dense(60, frac, 8)
		want := Sequential(g)
		got, err := Custom(2, graph.Wrap(g), TVFilterConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got.NumComp != want.NumComp {
			t.Errorf("frac=%.1f: NumComp=%d, want %d", frac, got.NumComp, want.NumComp)
		}
		if want.NumComp != 1 {
			t.Errorf("frac=%.1f: dense graph has %d blocks, expected 1", frac, want.NumComp)
		}
	}
}
