package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

func TestCountBlocksKnown(t *testing.T) {
	for name, fx := range fixtures() {
		want := Sequential(fx.g).NumComp
		got, err := CountBlocks(2, graph.Wrap(fx.g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: CountBlocks=%d, full algorithm says %d", name, got, want)
		}
	}
}

// Property: CountBlocks matches the full sequential algorithm exactly.
func TestQuickCountBlocksMatchesFull(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%80) + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		want := Sequential(g).NumComp
		got, err := CountBlocks(2, graph.Wrap(g))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTwoBFSBlockCountIsUpperBound documents the reproduction finding about
// the paper's Theorem 2 corollary: the two-BFS count never undercounts, and
// it matches exactly on structures whose blocks each own a single
// component of G−T — but it can overcount in general.
func TestTwoBFSBlockCountIsUpperBound(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%60) + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		exact := Sequential(g).NumComp
		bound, err := TwoBFSBlockCount(2, graph.Wrap(g))
		return err == nil && bound >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTwoBFSBlockCountCounterexample pins the 5-vertex instance on which
// the corollary (as stated in the paper) overcounts: the graph is
// biconnected, yet its BFS tree splits the nontree edges into two disjoint
// components of G−T.
func TestTwoBFSBlockCountCounterexample(t *testing.T) {
	g := &graph.EdgeList{N: 5, Edges: []graph.Edge{
		{U: 0, V: 2}, {U: 0, V: 4}, {U: 1, V: 2},
		{U: 2, V: 4}, {U: 1, V: 3}, {U: 0, V: 3},
	}}
	exact := Sequential(g).NumComp
	if exact != 1 {
		t.Fatalf("fixture is expected to be biconnected, got %d blocks", exact)
	}
	bound, err := TwoBFSBlockCount(1, graph.Wrap(g))
	if err != nil {
		t.Fatal(err)
	}
	if bound != 2 {
		t.Errorf("TwoBFSBlockCount=%d; the documented counterexample expects the corollary to report 2", bound)
	}
}

// On trees and simple cycles the corollary is exact.
func TestTwoBFSBlockCountExactCases(t *testing.T) {
	cases := map[string]struct {
		g    *graph.EdgeList
		want int
	}{
		"chain":      {gen.Chain(10), 9},
		"cycle":      {gen.Cycle(8), 1},
		"star":       {gen.Star(6), 5},
		"blockchain": {gen.BlockChain(4, 3), 4},
		"binarytree": {gen.BinaryTree(15), 14},
	}
	for name, c := range cases {
		got, err := TwoBFSBlockCount(2, graph.Wrap(c.g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != c.want {
			t.Errorf("%s: TwoBFSBlockCount=%d, want %d", name, got, c.want)
		}
	}
}

func TestCountBlocksLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		n := 500 + rng.Intn(1500)
		m := n + rng.Intn(4*n)
		g := gen.RandomConnected(n, m, int64(trial))
		want := Sequential(g).NumComp
		got, err := CountBlocks(4, graph.Wrap(g))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("trial %d (n=%d m=%d): CountBlocks=%d, want %d", trial, n, m, got, want)
		}
		bound, err := TwoBFSBlockCount(4, graph.Wrap(g))
		if err != nil {
			t.Fatal(err)
		}
		if bound < want {
			t.Errorf("trial %d: TwoBFSBlockCount=%d undercounts %d", trial, bound, want)
		}
	}
}
