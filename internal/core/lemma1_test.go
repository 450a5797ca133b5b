package core

import (
	"testing"
	"testing/quick"

	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
)

// TestLemma1BFSNontreeEdgesUnrelated checks the paper's Lemma 1, the fact
// the whole filtering algorithm rests on: with a BFS spanning tree, no
// nontree edge joins an ancestor to a descendant. (BFS levels of adjacent
// vertices differ by at most one, while a nontree ancestral pair differs
// by at least two.)
func TestLemma1BFSNontreeEdgesUnrelated(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%80) + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		c := graph.ToCSR(1, g)
		tr := spantree.BFS(1, c)
		td, err := numberTree(tr)
		if err != nil {
			return false
		}
		inT := tr.TreeEdgeMark(1, len(g.Edges))
		for i, e := range g.Edges {
			if inT[i] {
				continue
			}
			if td.Related(e.U, e.V) {
				return false // Lemma 1 violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLemma1FailsForNonBFSTrees exhibits why the BFS requirement is not an
// artifact: a path spanning tree of a cycle leaves the closing edge as a
// nontree edge between the two ends of the path — a textbook ancestral
// pair. This is the Fig. 2(d) situation, and the reason Custom refuses
// Filter with non-BFS trees.
func TestLemma1FailsForNonBFSTrees(t *testing.T) {
	g := gen.Cycle(6)
	// Path spanning tree 0-1-2-3-4-5 imposed by hand (a DFS tree of the
	// cycle); the nontree edge is {5,0}.
	f := &spantree.RootedForest{
		N:          g.N,
		Parent:     []int32{0, 0, 1, 2, 3, 4},
		ParentEdge: []int32{-1, 0, 1, 2, 3, 4},
		Roots:      []int32{0},
	}
	td, err := numberTree(f)
	if err != nil {
		t.Fatal(err)
	}
	closing := g.Edges[5] // {5, 0}
	if !td.Related(closing.U, closing.V) {
		t.Fatal("the cycle-closing edge should join an ancestor to a descendant under a path tree")
	}
	// The BFS tree of the same cycle keeps the nontree edge unrelated.
	tr := spantree.BFS(1, graph.ToCSR(1, g))
	tdB, err := numberTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	inT := tr.TreeEdgeMark(1, len(g.Edges))
	for i, e := range g.Edges {
		if !inT[i] && tdB.Related(e.U, e.V) {
			t.Fatalf("BFS tree: nontree edge (%d,%d) is ancestral — Lemma 1 violated", e.U, e.V)
		}
	}
}
