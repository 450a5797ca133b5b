package bicc

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// triangleBridge is a triangle {0,1,2} with a pendant edge {2,3}.
func triangleBridge(t *testing.T) *Graph {
	return mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
	// int32 vertex ids cannot number these; truncating n would wrap it.
	if g, err := NewGraph(1<<32+3, nil); err == nil {
		t.Errorf("n = 2^32+3 accepted as %d vertices", g.NumVertices())
	}
	if _, err := AdoptGraph(math.MaxInt32+1, nil); err == nil {
		t.Error("n past int32 accepted by AdoptGraph")
	}
	if _, _, _, err := NewGraphNormalized(1<<32+3, nil); err == nil {
		t.Error("n past int32 accepted by normalization")
	}
	if _, err := NewGraph(2, []Edge{{U: 0, V: 2}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewGraph(2, []Edge{{U: 1, V: 1}}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	g := mustGraph(t, 3, []Edge{{U: 0, V: 1}})
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Errorf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestNewGraphNormalized(t *testing.T) {
	g, loops, dups, err := NewGraphNormalized(3, []Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 2}, {U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if loops != 1 || dups != 1 {
		t.Errorf("loops=%d dups=%d, want 1,1", loops, dups)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m=%d, want 2", g.NumEdges())
	}
	if _, _, _, err := NewGraphNormalized(2, []Edge{{U: 0, V: 5}}); err == nil {
		t.Error("out-of-range endpoint accepted by normalization")
	}
}

func TestBiconnectedComponentsDefault(t *testing.T) {
	res, err := BiconnectedComponents(triangleBridge(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 2 {
		t.Fatalf("NumComponents=%d, want 2", res.NumComponents)
	}
	// Triangle edges share a block; bridge is alone.
	ec := res.EdgeComponent
	if ec[0] != ec[1] || ec[1] != ec[2] {
		t.Errorf("triangle edges split: %v", ec)
	}
	if ec[3] == ec[0] {
		t.Errorf("bridge merged with triangle: %v", ec)
	}
	if cuts := res.ArticulationPoints(); len(cuts) != 1 || cuts[0] != 2 {
		t.Errorf("articulation points = %v, want [2]", cuts)
	}
	if br := res.Bridges(); len(br) != 1 || br[0] != 3 {
		t.Errorf("bridges = %v, want [3]", br)
	}
	if res.IsBiconnected() {
		t.Error("graph with a bridge reported biconnected")
	}
}

// TestParseAlgorithmRoundTrip pins the public name set: every preset's
// String() parses back to the same value, and unknown names are rejected
// with an error that lists the valid presets.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		algo Algorithm
	}{
		{"auto", Auto},
		{"sequential", Sequential},
		{"tv-smp", TVSMP},
		{"tv-opt", TVOpt},
		{"tv-filter", TVFilter},
		{"fast-bcc", FastBCC},
	}
	for _, tc := range cases {
		if got := tc.algo.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.algo, got, tc.name)
		}
		got, err := ParseAlgorithm(tc.name)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", tc.name, err)
		} else if got != tc.algo {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", tc.name, got, tc.algo)
		}
	}
	for _, bad := range []string{"", "quantum", "TV-OPT", "fastbcc", "tv_opt"} {
		_, err := ParseAlgorithm(bad)
		if err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
			continue
		}
		for _, tc := range cases {
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("ParseAlgorithm(%q) error %q does not list preset %q", bad, err, tc.name)
			}
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	g, err := RandomConnectedGraph(300, 900, 7)
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, a := range append(Algorithms(), Auto) {
		res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 2})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.NumComponents != base.NumComponents {
			t.Errorf("%v: NumComponents=%d, want %d", a, res.NumComponents, base.NumComponents)
		}
	}
}

// isolatedPlusTriangle is n vertices, all isolated but for a triangle on
// 0, 1 and 2: a graph whose size n + m the planner's table prices without
// an edge list to match.
func isolatedPlusTriangle(t *testing.T, n int) *Graph {
	return mustGraph(t, n, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
}

// TestAutoSelection pins the engines Auto runs: the picks of the planner's
// fitted table (internal/plan/prior.go) at the requested worker count, on
// either side of n + m = 2^20, where the table's ratios change. The
// paper's §4 rule would run TV-opt or TV-filter at every p > 1 instead.
func TestAutoSelection(t *testing.T) {
	sparse, _ := RandomConnectedGraph(100, 150, 1) // m < 4n
	dense, _ := RandomConnectedGraph(100, 450, 2)  // m >= 4n
	large := isolatedPlusTriangle(t, 1<<20)        // n + m >= 2^20
	for _, tc := range []struct {
		name  string
		g     *Graph
		procs int
		want  Algorithm
	}{
		{"sparse/p=1", sparse, 1, Sequential},
		{"sparse/p=2", sparse, 2, FastBCC},
		{"sparse/p=8", sparse, 8, TVFilter},
		{"dense/p=1", dense, 1, Sequential},
		{"dense/p=2", dense, 2, FastBCC},
		{"large/p=1", large, 1, Sequential},
		{"large/p=2", large, 2, FastBCC},
		{"large/p=4", large, 4, TVFilter},
	} {
		res, err := BiconnectedComponents(tc.g, &Options{Procs: tc.procs})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Algorithm != tc.want {
			t.Errorf("%s: auto ran %v, want %v", tc.name, res.Algorithm, tc.want)
		}
		if got := ResolveAlgorithm(tc.g, Auto, tc.procs); got != res.Algorithm {
			t.Errorf("%s: ResolveAlgorithm says %v, the run %v", tc.name, got, res.Algorithm)
		}
	}
}

// TestResolveAlgorithmAllocatesNothing checks that resolving Auto reads a
// graph's counts and nothing else: no allocation, on a large graph as on a
// small one.
func TestResolveAlgorithmAllocatesNothing(t *testing.T) {
	for _, g := range []*Graph{triangleBridge(t), isolatedPlusTriangle(t, 1<<20)} {
		for _, p := range []int{0, 1, 2, 8} {
			if allocs := testing.AllocsPerRun(20, func() { ResolveAlgorithm(g, Auto, p) }); allocs != 0 {
				t.Errorf("n=%d p=%d: %.0f allocations per call, want 0", g.NumVertices(), p, allocs)
			}
		}
	}
}

func TestComponentsGrouping(t *testing.T) {
	res, err := BiconnectedComponents(triangleBridge(t), &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	comps := res.Components()
	if len(comps) != 2 {
		t.Fatalf("%d groups, want 2", len(comps))
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 3 {
		t.Errorf("component sizes %v, want [1 3]", sizes)
	}
}

func TestIsBiconnected(t *testing.T) {
	cyc, err := MeshGraph(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BiconnectedComponents(cyc, &Options{Algorithm: TVOpt, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBiconnected() {
		t.Error("mesh reported not biconnected")
	}
	// Isolated vertex breaks whole-graph biconnectivity.
	g := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	res2, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if res2.IsBiconnected() {
		t.Error("triangle plus isolated vertex reported biconnected")
	}
}

func TestNilAndEmpty(t *testing.T) {
	if _, err := BiconnectedComponents(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	empty := mustGraph(t, 0, nil)
	res, err := BiconnectedComponents(empty, &Options{Algorithm: TVFilter, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 0 {
		t.Errorf("empty graph NumComponents=%d", res.NumComponents)
	}
}

// TestGeneratorsErrors feeds the generators sizes no simple graph on int32
// vertex ids has: each call must return an error, and none may panic.
func TestGeneratorsErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, m      int
		connected bool
	}{
		{"overfull", 3, 10, false},
		{"negative m", 10, -1, false},
		{"negative n", -5, 0, false},
		{"n past int32", 1<<32 + 3, 0, false},
		{"under-tree", 5, 2, true},
		{"connected negative m", 0, -1, true},
		{"connected negative n", -5, 0, true},
		{"connected overfull", 4, 7, true},
	} {
		random := RandomGraph
		if tc.connected {
			random = RandomConnectedGraph
		}
		if g, err := random(tc.n, tc.m, 1); err == nil {
			t.Errorf("%s: (%d, %d) accepted as a %d-vertex graph", tc.name, tc.n, tc.m, g.NumVertices())
		}
	}
	if g, err := RandomGraph(10, 20, 1); err != nil || g.NumEdges() != 20 {
		t.Errorf("RandomGraph: %v, m=%d", err, g.NumEdges())
	}
	for _, tc := range []struct {
		name string
		gen  func() (*Graph, error)
	}{
		{"chain negative n", func() (*Graph, error) { return ChainGraph(-5) }},
		{"chain n past int32", func() (*Graph, error) { return ChainGraph(1<<32 + 3) }},
		{"mesh negative side", func() (*Graph, error) { return MeshGraph(-2, 3) }},
		{"mesh both sides negative", func() (*Graph, error) { return MeshGraph(-2, -3) }},
		{"mesh r·c past int32", func() (*Graph, error) { return MeshGraph(1<<16, 1<<16) }},
		{"mesh r·c past int64", func() (*Graph, error) { return MeshGraph(1<<33, 1<<33) }},
		{"torus negative side", func() (*Graph, error) { return TorusGraph(1, -3) }},
		{"torus r·c past int32", func() (*Graph, error) { return TorusGraph(1<<20, 1<<12) }},
		{"dense negative n", func() (*Graph, error) { return DenseGraph(-4, 0.5, 1) }},
		{"preferential attachment negative n", func() (*Graph, error) { return PreferentialAttachmentGraph(-4, 2, 1) }},
		{"preferential attachment edges past int32", func() (*Graph, error) { return PreferentialAttachmentGraph(1<<24, 1<<24, 1) }},
		{"preferential attachment k·n past int32", func() (*Graph, error) { return PreferentialAttachmentGraph(1<<28, 16, 1) }},
		{"geometric negative n", func() (*Graph, error) { return GeometricGraph(-4, 0.5, 1) }},
	} {
		if g, err := tc.gen(); err == nil {
			t.Errorf("%s: accepted as a %d-vertex graph", tc.name, g.NumVertices())
		}
	}
	if g, err := TorusGraph(3, 4); err != nil || g.NumVertices() != 12 || g.NumEdges() != 24 {
		t.Errorf("TorusGraph(3, 4): %v", err)
	}
	// A degree past the vertex count builds the graph of k = n-1.
	var big, full bytes.Buffer
	for _, c := range []struct {
		k   int
		out *bytes.Buffer
	}{{1 << 50, &big}, {9, &full}} {
		g, err := PreferentialAttachmentGraph(10, c.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteGraph(c.out, g); err != nil {
			t.Fatal(err)
		}
	}
	if big.String() != full.String() {
		t.Errorf("PreferentialAttachmentGraph(10, 1<<50, 1) = %q, want %q", big.String(), full.String())
	}
}

func TestGraphIO(t *testing.T) {
	g, err := ChainGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 5 || back.NumEdges() != 4 {
		t.Errorf("round trip: n=%d m=%d", back.NumVertices(), back.NumEdges())
	}
}

// Property: on random graphs, every algorithm agrees with Sequential on the
// number of blocks, and articulation/bridge counts match.
func TestQuickAlgorithmsEquivalent(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%40) + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g, err := RandomGraph(n, m, seed)
		if err != nil {
			return false
		}
		want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
		if err != nil {
			return false
		}
		for _, a := range parallelAlgorithms() {
			got, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 2})
			if err != nil {
				return false
			}
			if got.NumComponents != want.NumComponents {
				return false
			}
			if len(got.ArticulationPoints()) != len(want.ArticulationPoints()) {
				return false
			}
			if len(got.Bridges()) != len(want.Bridges()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	st := Analyze(g, 2)
	if st.Vertices != 5 || st.Edges != 3 {
		t.Errorf("sizes: %+v", st)
	}
	if st.Connected {
		t.Error("graph with isolated vertex reported connected")
	}
	if st.Isolated != 1 {
		t.Errorf("isolated=%d, want 1", st.Isolated)
	}
	if st.MaxDegree != 2 || st.MinDegree != 0 {
		t.Errorf("degrees: %+v", st)
	}
	if st.DiameterLB != 3 {
		t.Errorf("two-sweep diameter=%d, want 3 (path of 4)", st.DiameterLB)
	}
	chain, err := ChainGraph(20)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diameter(chain, 1); d != 19 {
		t.Errorf("Diameter=%d, want 19", d)
	}
}

// Palmer [15] via the public API: dense random graphs have tiny diameter,
// the reason the paper dismisses the d term in TV-filter's O(d + log n).
func TestAnalyzeDenseRandomDiameter(t *testing.T) {
	g, err := RandomConnectedGraph(500, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diameter(g, 2); d > 3 {
		t.Errorf("dense random diameter=%d, want <=3", d)
	}
}
