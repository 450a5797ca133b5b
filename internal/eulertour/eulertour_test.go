package eulertour

import (
	"math/rand"
	"testing"

	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
)

// checkSeq verifies Euler tour invariants on an ArcSeq: every tree edge
// appears exactly once per direction, consecutive arcs are chained
// (Dst[i] == Src[i+1]) within each component, each component's tour starts
// and ends at its root, and advance flags mark exactly the first traversal.
func checkSeq(t *testing.T, g *graph.EdgeList, seq *ArcSeq) {
	t.Helper()
	na := seq.NumArcs()
	// Component boundaries.
	bounds := append(append([]int32(nil), seq.CompFirst...), int32(na))
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if lo >= hi {
			t.Fatalf("component %d empty tour [%d,%d)", k, lo, hi)
		}
		root := seq.Roots[k]
		if seq.Src[lo] != root {
			t.Fatalf("component %d tour starts at %d, want root %d", k, seq.Src[lo], root)
		}
		if seq.Dst[hi-1] != root {
			t.Fatalf("component %d tour ends at %d, want root %d", k, seq.Dst[hi-1], root)
		}
		for i := lo; i+1 < hi; i++ {
			if seq.Dst[i] != seq.Src[i+1] {
				t.Fatalf("arcs %d->%d not chained: (%d,%d) then (%d,%d)",
					i, i+1, seq.Src[i], seq.Dst[i], seq.Src[i+1], seq.Dst[i+1])
			}
		}
	}
	// Direction coverage per edge id.
	fwd := map[int32]int{}
	seen := map[int32]bool{}
	for i := 0; i < na; i++ {
		id := seq.EdgeID[i]
		e := g.Edges[id]
		if seq.Src[i] == e.U && seq.Dst[i] == e.V {
			fwd[id]++
		} else if seq.Src[i] == e.V && seq.Dst[i] == e.U {
			fwd[id]--
		} else {
			t.Fatalf("arc %d (%d,%d) does not match edge %d = %v", i, seq.Src[i], seq.Dst[i], id, e)
		}
		// Advance must be the first traversal of the edge.
		if seen[id] == seq.Advance[i] {
			t.Fatalf("arc %d advance=%v but edge %d already seen=%v", i, seq.Advance[i], id, seen[id])
		}
		seen[id] = true
	}
	for id, bal := range fwd {
		if bal != 0 {
			t.Fatalf("edge %d traversed unevenly (balance %d)", id, bal)
		}
	}
}

func svRoots(n int32, edges []graph.Edge) (treeEdges, roots []int32) {
	f := spantree.SV(2, n, edges)
	// Roots = one representative per component: a vertex not covered as a
	// child by the forest is found via union-find over tree edges.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, id := range f.TreeEdges {
		e := edges[id]
		parent[find(e.U)] = find(e.V)
	}
	seen := map[int32]bool{}
	for v := int32(0); v < n; v++ {
		r := find(v)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, v)
		}
	}
	return f.TreeEdges, roots
}

func buildLinked(t *testing.T, p int, g *graph.EdgeList) *Tour {
	t.Helper()
	treeEdges, roots := svRoots(g.N, g.Edges)
	tour, err := FromForest(p, g.N, g.Edges, treeEdges, roots)
	if err != nil {
		t.Fatal(err)
	}
	return tour
}

func testGraphs() map[string]*graph.EdgeList {
	return map[string]*graph.EdgeList{
		"edge":         gen.Chain(2),
		"triangle":     gen.Cycle(3),
		"chain":        gen.Chain(30),
		"star":         gen.Star(12),
		"mesh":         gen.Mesh(5, 6),
		"random":       gen.RandomConnected(200, 500, 1),
		"binarytree":   gen.BinaryTree(31),
		"disconnected": gen.Disconnected(gen.Cycle(4), gen.Chain(6), gen.Star(5), &graph.EdgeList{N: 3}),
		"isolated":     {N: 4},
	}
}

func TestFromForestSequence(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{1, 4} {
			tour := buildLinked(t, p, g)
			for _, useHJ := range []bool{false, true} {
				seq, err := Sequence(p, tour, useHJ)
				if err != nil {
					t.Fatalf("%s p=%d HJ=%v: %v", name, p, useHJ, err)
				}
				checkSeq(t, g, seq)
			}
		}
	}
}

// TestDFSOrder checks that the DFS-order tour DFSOrderParallel computes is
// a valid Euler tour of work-stealing and BFS forests.
func TestDFSOrder(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{1, 3} {
			c := graph.ToCSR(p, g)
			for _, f := range []*spantree.RootedForest{
				spantree.WorkStealing(p, c),
				spantree.BFS(p, c),
			} {
				seq := DFSOrderParallel(p, g.Edges, f)
				checkSeq(t, g, seq)
				_ = name
			}
		}
	}
}

func TestSequenceArcCount(t *testing.T) {
	g := gen.RandomConnected(100, 250, 9)
	tour := buildLinked(t, 2, g)
	seq, err := Sequence(2, tour, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumArcs() != 2*99 {
		t.Errorf("arcs=%d, want %d", seq.NumArcs(), 2*99)
	}
	if len(seq.Roots) != 1 || len(seq.CompFirst) != 1 {
		t.Errorf("roots=%v compFirst=%v, want single component", seq.Roots, seq.CompFirst)
	}
}

func TestFromForestRejectsNonForest(t *testing.T) {
	// A triangle passed off as a "forest" is not a tree; the circuit check
	// or the downstream ranking must fail. FromForest detects the broken
	// circuit at the root in most arc orders.
	g := gen.Cycle(3)
	tour, err := FromForest(1, g.N, g.Edges, []int32{0, 1, 2}, []int32{0})
	if err != nil {
		return // detected at construction: good
	}
	if _, err := Sequence(1, tour, true); err == nil {
		t.Error("cycle accepted as spanning forest by both construction and ranking")
	}
}

func TestDFSOrderDeterministicPerForest(t *testing.T) {
	g := gen.RandomConnected(80, 200, 3)
	c := graph.ToCSR(1, g)
	f := spantree.BFS(1, c)
	a := DFSOrderParallel(1, g.Edges, f)
	b := DFSOrderParallel(2, g.Edges, f)
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("arc count differs between p=1 and p=2")
	}
	for i := 0; i < a.NumArcs(); i++ {
		if a.Src[i] != b.Src[i] || a.Dst[i] != b.Dst[i] || a.Advance[i] != b.Advance[i] {
			t.Fatalf("arc %d differs between p=1 and p=2", i)
		}
	}
}

func TestRandomizedToursAllConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(120)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial*7+1))
		tour := buildLinked(t, 2, g)
		seq, err := Sequence(2, tour, trial%2 == 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkSeq(t, g, seq)
		c := graph.ToCSR(1, g)
		checkSeq(t, g, DFSOrderParallel(2, g.Edges, spantree.WorkStealing(2, c)))
	}
}
