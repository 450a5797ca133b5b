package gen

import (
	"math/rand"
	"testing"

	"bicc/internal/graph"
)

// connectedComponents counts components with a simple BFS (test oracle).
func connectedComponents(g *graph.EdgeList) int {
	c := graph.ToCSR(1, g)
	seen := make([]bool, g.N)
	count := 0
	queue := make([]int32, 0, g.N)
	for s := int32(0); s < g.N; s++ {
		if seen[s] {
			continue
		}
		count++
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range c.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return count
}

func checkSimple(t *testing.T, g *graph.EdgeList) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	seen := map[uint64]struct{}{}
	for _, e := range g.Edges {
		k := graph.CanonKey(e.U, e.V)
		if _, ok := seen[k]; ok {
			t.Fatalf("duplicate edge (%d,%d)", e.U, e.V)
		}
		seen[k] = struct{}{}
	}
}

func TestRandomSizesAndSimplicity(t *testing.T) {
	g := Random(100, 300, 1)
	checkSimple(t, g)
	if g.N != 100 || len(g.Edges) != 300 {
		t.Errorf("got n=%d m=%d", g.N, len(g.Edges))
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := Random(50, 100, 42), Random(50, 100, 42)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := Random(50, 100, 43)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomPanicsOnOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Random(3, 4) should panic: only 3 edges possible")
		}
	}()
	Random(3, 4, 1)
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {2, 1}, {100, 99}, {100, 300}, {1000, 2500}} {
		g := RandomConnected(tc.n, tc.m, 7)
		checkSimple(t, g)
		if len(g.Edges) != tc.m {
			t.Errorf("n=%d m=%d: got %d edges", tc.n, tc.m, len(g.Edges))
		}
		if cc := connectedComponents(g); cc != 1 {
			t.Errorf("n=%d m=%d: %d components, want 1", tc.n, tc.m, cc)
		}
	}
}

func TestRandomConnectedPanicsUnderTree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RandomConnected(5, 3) should panic")
		}
	}()
	RandomConnected(5, 3, 1)
}

func TestMesh(t *testing.T) {
	g := Mesh(3, 4)
	checkSimple(t, g)
	if g.N != 12 {
		t.Errorf("n=%d, want 12", g.N)
	}
	wantM := 3*3 + 2*4 // horizontal + vertical
	if len(g.Edges) != wantM {
		t.Errorf("m=%d, want %d", len(g.Edges), wantM)
	}
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1", cc)
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	checkSimple(t, g)
	c := graph.ToCSR(1, g)
	for v := int32(0); v < g.N; v++ {
		if c.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree=%d, want 4", v, c.Degree(v))
		}
	}
}

func TestTorusSmallDims(t *testing.T) {
	g := Torus(2, 3) // wraparound in the 2-dimension duplicates edges; must stay simple
	checkSimple(t, g)
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1", cc)
	}
}

func TestChainCycleStar(t *testing.T) {
	if g := Chain(5); len(g.Edges) != 4 {
		t.Errorf("chain edges=%d, want 4", len(g.Edges))
	}
	if g := Cycle(5); len(g.Edges) != 5 {
		t.Errorf("cycle edges=%d, want 5", len(g.Edges))
	}
	if g := Star(5); len(g.Edges) != 4 {
		t.Errorf("star edges=%d, want 4", len(g.Edges))
	}
	checkSimple(t, Chain(10))
	checkSimple(t, Cycle(10))
	checkSimple(t, Star(10))
	if g := Chain(1); len(g.Edges) != 0 {
		t.Errorf("chain(1) edges=%d, want 0", len(g.Edges))
	}
}

func TestDense(t *testing.T) {
	g := Dense(40, 1.0, 1)
	checkSimple(t, g)
	if want := 40 * 39 / 2; len(g.Edges) != want {
		t.Errorf("full dense m=%d, want %d", len(g.Edges), want)
	}
	g70 := Dense(60, 0.7, 2)
	checkSimple(t, g70)
	total := 60 * 59 / 2
	if m := len(g70.Edges); m < total/2 || m > total {
		t.Errorf("70%% dense m=%d out of plausible range (%d..%d)", m, total/2, total)
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	checkSimple(t, g)
	if len(g.Edges) != 14 {
		t.Errorf("m=%d, want 14", len(g.Edges))
	}
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1", cc)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	checkSimple(t, g)
	if g.N != 20 {
		t.Errorf("n=%d, want 20", g.N)
	}
	if len(g.Edges) != 4+15 {
		t.Errorf("m=%d, want 19", len(g.Edges))
	}
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1", cc)
	}
}

func TestBlockChain(t *testing.T) {
	k, c := 4, 5
	g := BlockChain(k, c)
	checkSimple(t, g)
	if int(g.N) != k*(c-1)+1 {
		t.Errorf("n=%d, want %d", g.N, k*(c-1)+1)
	}
	if want := k * c * (c - 1) / 2; len(g.Edges) != want {
		t.Errorf("m=%d, want %d", len(g.Edges), want)
	}
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1", cc)
	}
}

func TestDisconnected(t *testing.T) {
	g := Disconnected(Cycle(4), Chain(3), Star(5))
	checkSimple(t, g)
	if g.N != 12 {
		t.Errorf("n=%d, want 12", g.N)
	}
	if cc := connectedComponents(g); cc != 3 {
		t.Errorf("%d components, want 3", cc)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(500, 3, 1)
	checkSimple(t, g)
	if cc := connectedComponents(g); cc != 1 {
		t.Errorf("%d components, want 1 (every vertex attaches to an earlier one)", cc)
	}
	// Skew: max degree should far exceed the mean.
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := 2 * len(g.Edges) / int(g.N)
	if maxDeg < 3*mean {
		t.Errorf("max degree %d vs mean %d: no skew — not scale-free-ish", maxDeg, mean)
	}
	if g0 := PreferentialAttachment(0, 3, 1); g0.N != 0 {
		t.Error("empty case broken")
	}
	checkSimple(t, PreferentialAttachment(10, 0, 2)) // k clamps to 1
}

func TestMaxAttached(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 40} {
		for _, k := range []int{0, 1, 3, n - 1, n, 1 << 50} {
			want := int64(0)
			for v := 1; v < n; v++ {
				want += int64(min(max(k, 1), v))
			}
			if got := MaxAttached(n, k); got != want {
				t.Errorf("MaxAttached(%d, %d) = %d, want %d", n, k, got, want)
			}
			if m := len(PreferentialAttachment(n, k, 1).Edges); int64(m) > want {
				t.Errorf("PreferentialAttachment(%d, %d) built %d edges, past %d", n, k, m, want)
			}
		}
	}
	if got, want := MaxAttached(1<<24, 1<<24), int64(1<<24)*(1<<24-1)/2; got != want {
		t.Errorf("MaxAttached(1<<24, 1<<24) = %d, want n(n-1)/2 = %d", got, want)
	}
}

func TestGeometric(t *testing.T) {
	g := Geometric(400, 0.08, 3)
	checkSimple(t, g)
	// Every emitted edge must respect the radius; spot-verify via an O(n^2)
	// recount.
	g2 := Geometric(400, 0.08, 3)
	if len(g.Edges) != len(g2.Edges) {
		t.Error("not deterministic")
	}
	if len(g.Edges) == 0 {
		t.Error("radius 0.08 over 400 points should produce edges")
	}
	if ge := Geometric(100, 0, 1); len(ge.Edges) != 0 {
		t.Error("zero radius produced edges")
	}
}

func TestGeometricMatchesBruteForce(t *testing.T) {
	// The grid-hashed generator must find exactly the pairs within r.
	n, r, seed := 150, 0.15, int64(7)
	g := Geometric(n, r, seed)
	// Recreate the points with the same rng stream.
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	want := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r*r {
				want++
			}
		}
	}
	if len(g.Edges) != want {
		t.Errorf("geometric edges=%d, brute force=%d", len(g.Edges), want)
	}
}
