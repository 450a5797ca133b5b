package core

import (
	"testing"
	"testing/quick"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

func TestBlockCutTreeBowtie(t *testing.T) {
	g := gen.BlockChain(2, 3) // two triangles sharing vertex 2
	res := Sequential(g)
	bct := NewBlockIndex(g.N, g.Edges, res.EdgeComp, res.NumComp)
	if bct.NumBlocks() != 2 {
		t.Fatalf("blocks=%d, want 2", bct.NumBlocks())
	}
	if cuts := bct.CutVertices(); len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts=%v, want [2]", cuts)
	}
	if len(bct.BlocksOfVertex(2)) != 2 {
		t.Errorf("cut vertex in %d blocks, want 2", len(bct.BlocksOfVertex(2)))
	}
	if got := bct.NumTreeEdges(); got != 2 {
		t.Errorf("tree edges=%d, want 2", got)
	}
	if leaves := bct.LeafBlocks(); len(leaves) != 2 {
		t.Errorf("leaf blocks=%v, want both", leaves)
	}
	for b := int32(0); b < 2; b++ {
		if len(bct.VerticesOfBlock(b)) != 3 {
			t.Errorf("block %d has %d vertices, want 3", b, len(bct.VerticesOfBlock(b)))
		}
		if len(bct.EdgesOfBlock(b)) != 3 {
			t.Errorf("block %d has %d edges, want 3", b, len(bct.EdgesOfBlock(b)))
		}
	}
}

func TestBlockCutTreeChain(t *testing.T) {
	g := gen.Chain(5) // 4 bridge blocks, 3 interior cut vertices
	res := Sequential(g)
	bct := NewBlockIndex(g.N, g.Edges, res.EdgeComp, res.NumComp)
	if bct.NumBlocks() != 4 {
		t.Fatalf("blocks=%d, want 4", bct.NumBlocks())
	}
	if cuts := bct.CutVertices(); len(cuts) != 3 {
		t.Fatalf("cuts=%v, want 3 interior vertices", cuts)
	}
	// Path of blocks: 2 leaves, 2 interior.
	if leaves := bct.LeafBlocks(); len(leaves) != 2 {
		t.Errorf("leaf blocks=%v, want 2", leaves)
	}
	// The block-cut tree of a connected graph is a tree: nodes = edges + 1.
	if bct.NumTreeEdges() != bct.NumNodes()-1 {
		t.Errorf("tree edges=%d nodes=%d: not a tree", bct.NumTreeEdges(), bct.NumNodes())
	}
}

func TestBlockCutTreeBiconnected(t *testing.T) {
	g := gen.Mesh(4, 4)
	res := Sequential(g)
	bct := NewBlockIndex(g.N, g.Edges, res.EdgeComp, res.NumComp)
	if bct.NumBlocks() != 1 || len(bct.CutVertices()) != 0 {
		t.Errorf("mesh: blocks=%d cuts=%d, want 1,0", bct.NumBlocks(), len(bct.CutVertices()))
	}
	if len(bct.VerticesOfBlock(0)) != 16 {
		t.Errorf("block covers %d vertices, want 16", len(bct.VerticesOfBlock(0)))
	}
}

func TestBlockCutTreeIsolatedVertices(t *testing.T) {
	g := gen.Disconnected(gen.Cycle(3), &graph.EdgeList{N: 2})
	res := Sequential(g)
	bct := NewBlockIndex(g.N, g.Edges, res.EdgeComp, res.NumComp)
	if bct.NumBlocks() != 1 || len(bct.CutVertices()) != 0 {
		t.Errorf("blocks=%d cuts=%d, want 1,0", bct.NumBlocks(), len(bct.CutVertices()))
	}
	for v := int32(3); v < 5; v++ {
		if bct.BlocksOfVertex(v) != nil {
			t.Errorf("isolated vertex %d in blocks %v", v, bct.BlocksOfVertex(v))
		}
	}
}

// Property: the block-cut structure of any graph satisfies the forest
// identity per connected component, cut vertices match Articulation, and
// every vertex with degree >= 1 appears in at least one block.
func TestQuickBlockCutTreeInvariants(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%50) + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := gen.Random(n, m, seed)
		res := Sequential(g)
		bct := NewBlockIndex(g.N, g.Edges, res.EdgeComp, res.NumComp)
		// Cut vertices must equal Articulation's output.
		arts, cuts := Articulation(g, res.EdgeComp), bct.CutVertices()
		if len(arts) != len(cuts) {
			return false
		}
		for i := range arts {
			if arts[i] != cuts[i] {
				return false
			}
		}
		// Forest identity: nodes - edges = number of connected components
		// that contain at least one edge.
		labels := conncomp.UnionFind(g.N, g.Edges)
		compHasEdge := map[int32]bool{}
		for _, e := range g.Edges {
			compHasEdge[labels[e.U]] = true
		}
		if bct.NumNodes()-bct.NumTreeEdges() != len(compHasEdge) {
			return false
		}
		// Degree >= 1 vertices appear in >= 1 block; isolated in none.
		deg := make([]int, n)
		for _, e := range g.Edges {
			deg[e.U]++
			deg[e.V]++
		}
		for v := 0; v < n; v++ {
			if (deg[v] > 0) != (len(bct.BlocksOfVertex(int32(v))) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
