package treecomp

import (
	"errors"
	"slices"
	"testing"

	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/par"
	"bicc/internal/spantree"
)

// number runs the whole kernel over f: Order, then LevelOrder.Number, as
// core.Custom runs them.
func number(cn *par.Canceler, f *spantree.RootedForest) (*TreeData, error) {
	l, err := Order(cn, f)
	if err != nil {
		return nil, err
	}
	return l.Number(cn)
}

// checkNumberMatchesTour holds the kernel's numbering of f to Compute over
// f's DFS-order tour, field for field, and Size to a count along parent
// pointers.
func checkNumberMatchesTour(t *testing.T, what string, g *graph.EdgeList, f *spantree.RootedForest) {
	t.Helper()
	got, err := number(nil, f)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := Compute(2, eulertour.DFSOrderParallel(2, g.Edges, f))
	if err != nil {
		t.Fatalf("%s: tour: %v", what, err)
	}
	for name, pair := range map[string][2][]int32{
		"Parent": {got.Parent, want.Parent},
		"Pre":    {got.Pre, want.Pre},
		"Size":   {got.Size, want.Size},
		"Roots":  {got.Roots, want.Roots},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("%s: %s differs from the tour's numbering:\n got  %v\n want %v", what, name, pair[0], pair[1])
		}
	}
	count := make([]int32, f.N)
	for v := int32(0); v < f.N; v++ {
		for a := v; ; a = f.Parent[a] {
			count[a]++
			if f.Parent[a] == a {
				break
			}
		}
	}
	if !slices.Equal(got.Size, count) {
		t.Fatalf("%s: Size %v, counted along parent pointers %v", what, got.Size, count)
	}
}

func TestNumberMatchesCompute(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"empty":        {},
		"single":       {N: 1},
		"isolated":     {N: 5},
		"edge":         gen.Chain(2),
		"chain":        gen.Chain(300),
		"star":         gen.Star(40),
		"torus":        gen.Torus(12, 9),
		"random":       gen.Random(400, 900, 3),
		"binarytree":   gen.BinaryTree(127),
		"blockchain":   gen.BlockChain(30, 5),
		"disconnected": gen.Disconnected(&graph.EdgeList{N: 3}, gen.Cycle(7), gen.Star(5), &graph.EdgeList{N: 1}, gen.Chain(4)),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 4} {
			c := graph.ToCSR(p, g)
			checkNumberMatchesTour(t, name+"/bfs", g, spantree.BFS(p, c))
			checkNumberMatchesTour(t, name+"/work-stealing", g, spantree.WorkStealing(p, c))
		}
	}
}

// TestNumberRejectsBadForests feeds the kernel parent arrays that are not
// rooted forests: each must come back as an error, never as a loop or a
// numbering.
func TestNumberRejectsBadForests(t *testing.T) {
	for name, f := range map[string]*spantree.RootedForest{
		// 0 is the root; 1 → 2 → 3 → 1 never reaches it.
		"cycle": {N: 4, Parent: []int32{0, 2, 3, 1}, Roots: []int32{0}},
		// Every vertex sits on the cycle 0 → 1 → 2 → 0 and none is a root.
		"cycle-no-root": {N: 3, Parent: []int32{1, 2, 0}},
		// 2 is self-parented but missing from Roots.
		"missing-root": {N: 3, Parent: []int32{0, 0, 2}, Roots: []int32{0}},
		// A listed root that has a parent.
		"root-with-parent": {N: 3, Parent: []int32{0, 0, 1}, Roots: []int32{0, 1}},
		// A parent outside the vertex range, as an unfinished traversal leaves.
		"unclaimed": {N: 3, Parent: []int32{0, -1, 0}, Roots: []int32{0}},
	} {
		if td, err := number(nil, f); err == nil {
			t.Errorf("%s: numbered %+v, want an error", name, td)
		}
	}
}

func TestNumberReturnsCancelCause(t *testing.T) {
	cause := errors.New("stop")
	cn := &par.Canceler{}
	cn.Cancel(cause)
	f := spantree.BFS(1, graph.ToCSR(1, gen.Chain(10)))
	if _, err := number(cn, f); !errors.Is(err, cause) {
		t.Fatalf("Number on a tripped canceler: %v, want %v", err, cause)
	}
}
