package core

import (
	"testing"

	"bicc/internal/graph"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// TestPaperFigure1 reproduces the paper's worked example exactly: graph G1
// (Fig. 1) under its drawn spanning tree has an R'c relation of size 11 —
// 4, 4 and 3 pairs from conditions 1, 2 and 3 — and its auxiliary graph
// has 10 vertices (one per edge) and 11 edges. G2, obtained by deleting the
// non-essential nontree edges e1 and e2, has R'c of size 7 (2, 2, 3) and an
// 8-vertex, 7-edge auxiliary graph. The counts come from Label-edge's mask
// and the nontree count.
//
// Reconstruction of Fig. 1 from the condition lists: the tree is a root r
// with three chains below it — t1=(x1,r), t3=(y1,x1); t5=(x2,r),
// t6=(y2,x2); t2=(x3,r), t4=(y3,x3) — and the nontree edges are
// e1=(x1,x2), e2=(x2,x3), e3=(y1,y2), e4=(y2,y3). That assignment yields
// precisely the paper's three condition lists.
func TestPaperFigure1(t *testing.T) {
	// Vertex ids: r=0, x1=1, y1=2, x2=3, y2=4, x3=5, y3=6 (preorder of the
	// drawn tree when chains are visited left to right).
	const (
		r, x1, y1, x2, y2, x3, y3 = 0, 1, 2, 3, 4, 5, 6
	)
	tree := []graph.Edge{
		{U: x1, V: r},  // t1
		{U: y1, V: x1}, // t3
		{U: x2, V: r},  // t5
		{U: y2, V: x2}, // t6
		{U: x3, V: r},  // t2
		{U: y3, V: x3}, // t4
	}
	nontreeG1 := []graph.Edge{
		{U: x1, V: x2}, // e1
		{U: x2, V: x3}, // e2
		{U: y1, V: y2}, // e3
		{U: y2, V: y3}, // e4
	}

	check := func(name string, nontree []graph.Edge, wantCond [3]int, wantAuxV, wantAuxE int) {
		t.Helper()
		g := &graph.EdgeList{N: 7, Edges: append(append([]graph.Edge(nil), tree...), nontree...)}
		// The drawn spanning tree, imposed explicitly.
		f := &spantree.RootedForest{
			N:          7,
			Parent:     make([]int32, 7),
			ParentEdge: make([]int32, 7),
			Roots:      []int32{r},
		}
		f.Parent[r] = r
		f.ParentEdge[r] = -1
		for i, e := range tree {
			f.Parent[e.U] = e.V
			f.ParentEdge[e.U] = int32(i)
		}
		td, err := numberTree(f)
		if err != nil {
			t.Fatal(err)
		}
		isTree := f.TreeEdgeMark(1, len(g.Edges))
		low, high := treecomp.LowHigh(1, td, g.Edges, isTree)
		mask := auxMask(nil, 1, g.Edges, isTree, td, low, high, false, nil)
		cond := maskConds(isTree, mask, nil)
		for k := 0; k < 3; k++ {
			if cond[k] != wantCond[k] {
				t.Errorf("%s: condition %d contributes %d pairs, paper says %d",
					name, k+1, cond[k], wantCond[k])
			}
		}
		// |V'| = one vertex per edge of G. |E'| = one condition-1 pair per
		// nontree edge (the pendants the mask leaves out) plus the masked
		// edges.
		if auxV := len(g.Edges); auxV != wantAuxV {
			t.Errorf("%s: aux graph should have %d vertices, got %d", name, wantAuxV, auxV)
		}
		if auxE := cond[0] + cond[1] + cond[2]; auxE != wantAuxE {
			t.Errorf("%s: aux graph has %d edges, paper says %d", name, auxE, wantAuxE)
		}
		// Both graphs are biconnected: the pipeline must report one block.
		res, err := Custom(1, graph.Wrap(g), TVOptConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComp != 1 {
			t.Errorf("%s: %d blocks, want 1 (Fig. 1 graphs are biconnected)", name, res.NumComp)
		}
	}

	check("G1", nontreeG1, [3]int{4, 4, 3}, 10, 11)
	check("G2", nontreeG1[2:], [3]int{2, 2, 3}, 8, 7)
}
