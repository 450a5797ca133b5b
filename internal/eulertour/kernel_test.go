package eulertour_test

import (
	"math/rand"
	"slices"
	"testing"

	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// sameNumbering fails unless the tree computations over DFSOrderParallel's
// tour equal the sequential numbering kernel's, field for field.
func sameNumbering(t *testing.T, what string, p int, g *graph.EdgeList, f *spantree.RootedForest) {
	t.Helper()
	seq := eulertour.DFSOrderParallel(p, g.Edges, f)
	if seq.NumArcs() != 2*(int(g.N)-len(f.Roots)) {
		t.Fatalf("%s p=%d: %d arcs for %d vertices in %d trees", what, p, seq.NumArcs(), g.N, len(f.Roots))
	}
	got, err := treecomp.Compute(p, seq)
	if err != nil {
		t.Fatalf("%s p=%d: %v", what, p, err)
	}
	l, err := treecomp.Order(nil, f)
	if err != nil {
		t.Fatalf("%s p=%d: kernel: %v", what, p, err)
	}
	want, err := l.Number(nil)
	if err != nil {
		t.Fatalf("%s p=%d: kernel: %v", what, p, err)
	}
	if !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Pre, want.Pre) ||
		!slices.Equal(got.Size, want.Size) || !slices.Equal(got.Roots, want.Roots) {
		t.Fatalf("%s p=%d: the tour's numbering differs from the kernel's", what, p)
	}
}

// TestDFSOrderParallelMatchesSequential holds the computed tour to the
// sequential numbering kernel on work-stealing and BFS forests.
func TestDFSOrderParallelMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"edge":         gen.Chain(2),
		"chain":        gen.Chain(30),
		"star":         gen.Star(12),
		"mesh":         gen.Mesh(5, 6),
		"random":       gen.RandomConnected(200, 500, 1),
		"binarytree":   gen.BinaryTree(31),
		"disconnected": gen.Disconnected(gen.Cycle(4), gen.Chain(6), gen.Star(5), &graph.EdgeList{N: 3}),
		"isolated":     {N: 4},
	}
	for name, g := range graphs {
		for _, p := range []int{1, 4} {
			c := graph.ToCSR(p, g)
			sameNumbering(t, name+"/work-stealing", p, g, spantree.WorkStealing(p, c))
			sameNumbering(t, name+"/bfs", p, g, spantree.BFS(p, c))
		}
	}
}

func TestDFSOrderParallelRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(300)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial*3+2))
		sameNumbering(t, "random", 3, g, spantree.BFS(1, graph.ToCSR(1, g)))
	}
}
