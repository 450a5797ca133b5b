package treecomp

import (
	"math/rand"
	"testing"

	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
)

func buildTD(t *testing.T, p int, g *graph.EdgeList) (*TreeData, *spantree.RootedForest) {
	t.Helper()
	c := graph.ToCSR(p, g)
	f := spantree.BFS(p, c)
	td, err := Compute(p, eulertour.DFSOrderParallel(p, g.Edges, f))
	if err != nil {
		t.Fatal(err)
	}
	return td, f
}

// checkTreeData validates the numbering invariants against the forest.
func checkTreeData(t *testing.T, td *TreeData, f *spantree.RootedForest) {
	t.Helper()
	n := int(td.N)
	// Pre is a permutation: its inverse has no hole and no collision.
	order := make([]int32, n)
	for i := range order {
		order[i] = -1
	}
	for v := 0; v < n; v++ {
		pre := td.Pre[v]
		if pre < 0 || int(pre) >= n || order[pre] != -1 {
			t.Fatalf("vertex %d pre=%d invalid or duplicated", v, pre)
		}
		order[pre] = int32(v)
	}
	// Parents must match the input forest (up to the tour's own rooting for
	// linked tours; for rooted inputs they must be identical).
	for v := int32(0); v < td.N; v++ {
		if f != nil && td.Parent[v] != f.Parent[v] {
			t.Fatalf("vertex %d parent=%d, forest says %d", v, td.Parent[v], f.Parent[v])
		}
	}
	// Subtree intervals: non-roots nest strictly inside their parent and
	// start after the parent's own slot; sizes are consistent.
	childSum := make([]int32, n)
	for v := int32(0); v < td.N; v++ {
		if td.IsRoot(v) {
			continue
		}
		p := td.Parent[v]
		if !(td.Pre[p] < td.Pre[v]) {
			t.Fatalf("child %d pre=%d not after parent %d pre=%d", v, td.Pre[v], p, td.Pre[p])
		}
		if !(td.Pre[p] < td.Pre[v] && td.Pre[v]+td.Size[v] <= td.Pre[p]+td.Size[p]) {
			t.Fatalf("subtree of %d [%d,%d) escapes parent %d [%d,%d)",
				v, td.Pre[v], td.Pre[v]+td.Size[v], p, td.Pre[p], td.Pre[p]+td.Size[p])
		}
		childSum[p] += td.Size[v]
	}
	for v := int32(0); v < td.N; v++ {
		if td.Size[v] != childSum[v]+1 {
			t.Fatalf("vertex %d size=%d, children sum+1=%d", v, td.Size[v], childSum[v]+1)
		}
	}
}

// ancestorOracle chases parent pointers.
func ancestorOracle(td *TreeData, a, d int32) bool {
	for {
		if d == a {
			return true
		}
		p := td.Parent[d]
		if p == d {
			return false
		}
		d = p
	}
}

func TestComputeFromDFSOrder(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"edge":         gen.Chain(2),
		"chain":        gen.Chain(40),
		"star":         gen.Star(15),
		"cycle":        gen.Cycle(9),
		"mesh":         gen.Mesh(6, 7),
		"random":       gen.RandomConnected(150, 400, 2),
		"binarytree":   gen.BinaryTree(63),
		"disconnected": gen.Disconnected(gen.Cycle(5), gen.Chain(4), &graph.EdgeList{N: 2}),
		"isolated":     {N: 5},
		"single":       {N: 1},
	}
	for name, g := range graphs {
		for _, p := range []int{1, 4} {
			td, f := buildTD(t, p, g)
			checkTreeData(t, td, f)
			_ = name
		}
	}
}

func TestComputeFromLinkedTour(t *testing.T) {
	g := gen.RandomConnected(120, 300, 4)
	f := spantree.SV(2, g.N, g.Edges)
	tour, err := eulertour.FromForest(2, g.N, g.Edges, f.TreeEdges, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eulertour.Sequence(2, tour, true)
	if err != nil {
		t.Fatal(err)
	}
	td, err := Compute(2, seq)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeData(t, td, nil)
	if !td.IsRoot(0) {
		t.Error("vertex 0 should be the root")
	}
	if td.Pre[0] != 0 || td.Size[0] != g.N {
		t.Errorf("root pre=%d size=%d, want 0,%d", td.Pre[0], td.Size[0], g.N)
	}
}

func TestIsAncestorMatchesOracle(t *testing.T) {
	g := gen.RandomConnected(60, 150, 8)
	td, _ := buildTD(t, 2, g)
	for a := int32(0); a < g.N; a++ {
		for d := int32(0); d < g.N; d++ {
			want := ancestorOracle(td, a, d)
			if got := td.IsAncestor(a, d); got != want {
				t.Fatalf("IsAncestor(%d,%d)=%v, oracle=%v", a, d, got, want)
			}
			wantRel := want || ancestorOracle(td, d, a)
			if got := td.Related(a, d); got != wantRel {
				t.Fatalf("Related(%d,%d)=%v, oracle=%v", a, d, got, wantRel)
			}
		}
	}
}

// lowHighOracle computes low/high without preorder intervals: each vertex
// folds its own preorder and its nontree neighbours' into every ancestor it
// reaches by parent pointers. O(m + n·depth).
func lowHighOracle(td *TreeData, edges []graph.Edge, isTree []bool) (low, high []int32) {
	n := int(td.N)
	seedLo := append([]int32(nil), td.Pre...)
	seedHi := append([]int32(nil), td.Pre...)
	for i, e := range edges {
		if isTree[i] {
			continue
		}
		seedLo[e.U] = min(seedLo[e.U], td.Pre[e.V])
		seedHi[e.U] = max(seedHi[e.U], td.Pre[e.V])
		seedLo[e.V] = min(seedLo[e.V], td.Pre[e.U])
		seedHi[e.V] = max(seedHi[e.V], td.Pre[e.U])
	}
	low = append([]int32(nil), td.Pre...)
	high = append([]int32(nil), td.Pre...)
	for d := 0; d < n; d++ {
		for a := int32(d); ; a = td.Parent[a] {
			low[a] = min(low[a], seedLo[d])
			high[a] = max(high[a], seedHi[d])
			if td.IsRoot(a) {
				break
			}
		}
	}
	return low, high
}

func TestLowHighAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(40)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial+100))
		c := graph.ToCSR(1, g)
		f := spantree.BFS(1, c)
		td, err := number(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		isTree := f.TreeEdgeMark(1, len(g.Edges))
		wantLow, wantHigh := lowHighOracle(td, g.Edges, isTree)
		for _, p := range []int{1, 4} {
			low, high := LowHigh(p, td, g.Edges, isTree)
			csrLow, csrHigh := LowHighCSR(p, td.Pre, td.Size, td.Parent, c)
			for v := 0; v < n; v++ {
				if low[v] != wantLow[v] || high[v] != wantHigh[v] {
					t.Fatalf("trial %d p=%d vertex %d: low=%d/%d high=%d/%d",
						trial, p, v, low[v], wantLow[v], high[v], wantHigh[v])
				}
				if csrLow[v] != wantLow[v] || csrHigh[v] != wantHigh[v] {
					t.Fatalf("trial %d p=%d vertex %d, CSR seeds: low=%d/%d high=%d/%d",
						trial, p, v, csrLow[v], wantLow[v], csrHigh[v], wantHigh[v])
				}
			}
		}
	}
}

func TestLowHighCycleIsWholeRange(t *testing.T) {
	// On a cycle every vertex's subtree reaches the whole component via the
	// single nontree edge chain... specifically low(root child)=0.
	g := gen.Cycle(10)
	c := graph.ToCSR(1, g)
	f := spantree.BFS(1, c)
	td, err := number(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	low, high := LowHigh(1, td, g.Edges, f.TreeEdgeMark(1, len(g.Edges)))
	for v := int32(0); v < g.N; v++ {
		if td.IsRoot(v) {
			continue
		}
		// In a cycle, every subtree hangs onto the rest by a nontree edge:
		// low must reach at or below the parent's preorder.
		if low[v] >= td.Pre[v] && td.Size[v] == 1 && high[v] == td.Pre[v] {
			t.Fatalf("leaf %d of cycle has low=%d high=%d pre=%d: misses its nontree edge",
				v, low[v], high[v], td.Pre[v])
		}
	}
	_ = high
}

// TestBlockedRMQDirect checks pairRMQ's range folds against a scan, on
// sizes around the block length and ranges that cross many blocks.
func TestBlockedRMQDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 2, foldBlock - 1, foldBlock, foldBlock + 1, 5 * foldBlock, 1000} {
		vals := make([]seed, n)
		for i := range vals {
			vals[i] = seed{int32(rng.Intn(1000)), int32(rng.Intn(1000))}
		}
		for _, p := range []int{1, 2} {
			r := newPairRMQ(p, vals)
			for trial := 0; trial < 200; trial++ {
				a := rng.Intn(n)
				b := a + rng.Intn(n-a)
				want := vals[a]
				for i := a + 1; i <= b; i++ {
					want = want.fold(vals[i])
				}
				if got := r.query(int32(a), int32(b)); got != want {
					t.Fatalf("n=%d p=%d fold[%d,%d]=%v, want %v", n, p, a, b, got, want)
				}
			}
		}
	}
}

func TestLinkedAndDFSToursAgreeOnStructure(t *testing.T) {
	// Different tours of different spanning trees will disagree on Pre, but
	// both must satisfy all invariants and agree on component sizes at the
	// roots.
	g := gen.Disconnected(gen.Cycle(6), gen.Mesh(3, 3))
	c := graph.ToCSR(1, g)
	f := spantree.WorkStealing(2, c)
	td, err := number(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeData(t, td, f)
	sizes := map[int32]bool{}
	for _, r := range td.Roots {
		sizes[td.Size[r]] = true
	}
	if !sizes[6] || !sizes[9] {
		t.Errorf("component sizes at roots: %v, want {6,9}", sizes)
	}
}
