package bicc

import "testing"

func TestBlockCutTreePublic(t *testing.T) {
	// Two triangles joined at vertex 2 plus a pendant chain 4-7-8.
	g := mustGraph(t, 9, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		{U: 4, V: 7}, {U: 7, V: 8},
	})
	res, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	bct := res.BlockCutTree()
	if bct.NumBlocks() != 4 {
		t.Fatalf("blocks=%d, want 4 (two triangles, two bridges)", bct.NumBlocks())
	}
	cuts := bct.CutVertices()
	if len(cuts) != 3 {
		t.Fatalf("cuts=%v, want [2 4 7]", cuts)
	}
	for i, want := range []int32{2, 4, 7} {
		if cuts[i] != want {
			t.Errorf("cuts[%d]=%d, want %d", i, cuts[i], want)
		}
	}
	if got := bct.BlocksOfVertex(2); len(got) != 2 {
		t.Errorf("vertex 2 in %d blocks, want 2", len(got))
	}
	if got := bct.BlocksOfVertex(4); len(got) != 2 {
		t.Errorf("vertex 4 in %d blocks, want 2", len(got))
	}
	if got := bct.BlocksOfVertex(0); len(got) != 1 {
		t.Errorf("vertex 0 in %d blocks, want 1", len(got))
	}
	if got := bct.BlocksOfVertex(5); len(got) != 0 {
		t.Errorf("isolated vertex 5 in %d blocks, want 0", len(got))
	}
	// Connected edge-bearing subgraph: tree identity over its nodes.
	if bct.NumNodes()-bct.NumTreeEdges() != 1 {
		t.Errorf("nodes=%d edges=%d: not a tree", bct.NumNodes(), bct.NumTreeEdges())
	}
	// Leaves: triangle {0,1,2} (only cut 2) and bridge (7,8) (only cut 7);
	// triangle {2,3,4} and bridge (4,7) are interior.
	leaves := bct.LeafBlocks()
	if len(leaves) != 2 {
		t.Errorf("leaves=%v, want 2", leaves)
	}
	// Out-of-range ids answer nil instead of panicking.
	for _, v := range []int32{-1, 9} {
		if got := bct.BlocksOfVertex(v); got != nil {
			t.Errorf("BlocksOfVertex(%d) = %v, want nil", v, got)
		}
	}
	for _, b := range []int32{-1, 4} {
		if got := bct.VerticesOfBlock(b); got != nil {
			t.Errorf("VerticesOfBlock(%d) = %v, want nil", b, got)
		}
		if got := bct.CutsOfBlock(b); got != nil {
			t.Errorf("CutsOfBlock(%d) = %v, want nil", b, got)
		}
	}
}

func TestCountBlocksPublic(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	got, err := CountBlocks(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("CountBlocks=%d, want 2", got)
	}
	if _, err := CountBlocks(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestComponentSubgraph(t *testing.T) {
	g := mustGraph(t, 6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle block
		{U: 2, V: 3},                             // bridge
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, // second triangle
	})
	res, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	foundTriangles, foundBridge := 0, 0
	for k := int32(0); k < int32(res.NumComponents); k++ {
		sub, vmap, emap := res.ComponentSubgraph(k)
		switch sub.NumEdges() {
		case 3:
			foundTriangles++
			if sub.NumVertices() != 3 {
				t.Errorf("block %d: triangle with %d vertices", k, sub.NumVertices())
			}
			subRes, err := BiconnectedComponents(sub, &Options{Algorithm: Sequential})
			if err != nil {
				t.Fatal(err)
			}
			if !subRes.IsBiconnected() {
				t.Errorf("block %d subgraph not biconnected", k)
			}
		case 1:
			foundBridge++
		default:
			t.Errorf("block %d has %d edges", k, sub.NumEdges())
		}
		// Mappings must be consistent with the original graph.
		for j, e := range sub.Edges() {
			orig := g.Edges()[emap[j]]
			u, v := vmap[e.U], vmap[e.V]
			if !((u == orig.U && v == orig.V) || (u == orig.V && v == orig.U)) {
				t.Errorf("block %d edge %d maps to %v, original %v", k, j, [2]int32{u, v}, orig)
			}
		}
	}
	if foundTriangles != 2 || foundBridge != 1 {
		t.Errorf("found %d triangles and %d bridges, want 2 and 1", foundTriangles, foundBridge)
	}
}
