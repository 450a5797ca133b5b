package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"bicc"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// The differential harness: for every graph family and every algorithm, the
// sharded form of a decomposition must answer every query kind byte-for-byte
// identically to the monolithic Result/BlockCutTree path. "Byte-for-byte"
// is literal — answers are compared as marshaled JSON, so nil-vs-empty slice
// differences (which would change the HTTP responses) fail the test.

// diffFamily is one graph family under differential test.
type diffFamily struct {
	name string
	el   *graph.EdgeList
}

// diffFamilies returns the three required families: random connected graphs
// (many mixed-size blocks), the torus (biconnected — exactly one block),
// and the caterpillar star-chain (every edge its own block, every spine
// vertex a cut).
func diffFamilies() []diffFamily {
	return []diffFamily{
		{"random", gen.RandomConnected(240, 700, 42)},
		{"torus", gen.Torus(12, 14)},
		{"star-chain", gen.Caterpillar(40, 5)},
	}
}

// diffAlgorithms is every engine the service can run.
var diffAlgorithms = bicc.Algorithms()

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// buildBoth computes the decomposition and its sharded form.
func buildBoth(t *testing.T, fam diffFamily, algo bicc.Algorithm) (*bicc.Graph, *bicc.Result, *Set) {
	t.Helper()
	g, err := bicc.NewGraph(int(fam.el.N), fam.el.Edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
	if err != nil {
		t.Fatalf("BiconnectedComponents(%v): %v", algo, err)
	}
	set, err := BuildSet(context.Background(), "fp-"+fam.name, g, res)
	if err != nil {
		t.Fatalf("BuildSet: %v", err)
	}
	return g, res, set
}

// assertShardEqualsMonolith runs the five query kinds against both paths.
// shards indexes the per-block state (a freshly built Set's own Shards).
func assertShardEqualsMonolith(t *testing.T, g *bicc.Graph, res *bicc.Result, set *Set, shards []*Shard) {
	t.Helper()
	tree := res.BlockCutTree()
	n := int32(g.NumVertices())
	if set.N != n || set.NumBlocks != res.NumComponents {
		t.Fatalf("set dims N=%d blocks=%d, want %d/%d", set.N, set.NumBlocks, n, res.NumComponents)
	}

	// Query kind 1: blocks-of-vertex, every vertex.
	for v := int32(0); v < n; v++ {
		got, want := mustJSON(t, set.BlocksOfVertex(v)), mustJSON(t, tree.BlocksOfVertex(v))
		if got != want {
			t.Fatalf("BlocksOfVertex(%d) = %s, monolith %s", v, got, want)
		}
	}

	// Query kind 4 (vertex half): articulation membership, every vertex,
	// plus the full cut-vertex enumeration.
	for v := int32(0); v < n; v++ {
		if set.IsCut(v) != (len(tree.BlocksOfVertex(v)) >= 2) {
			t.Fatalf("IsCut(%d) = %v disagrees with monolith", v, set.IsCut(v))
		}
	}
	if got, want := mustJSON(t, set.CutVertices()), mustJSON(t, tree.CutVertices()); got != want {
		t.Fatalf("CutVertices = %s, monolith %s", got, want)
	}

	for b := int32(0); b < int32(set.NumBlocks); b++ {
		sh := shards[b]
		if sh.Block != b {
			t.Fatalf("shard %d carries block id %d", b, sh.Block)
		}

		// Query kind 2: vertices-of-block.
		if got, want := mustJSON(t, sh.Vertices), mustJSON(t, tree.VerticesOfBlock(b)); got != want {
			t.Fatalf("block %d vertices = %s, monolith %s", b, got, want)
		}

		// Query kind 3: cuts-of-block.
		if got, want := mustJSON(t, sh.Cuts), mustJSON(t, tree.CutsOfBlock(b)); got != want {
			t.Fatalf("block %d cuts = %s, monolith %s", b, got, want)
		}

		// Query kind 5: component-subgraph round trip. The shard's remapped
		// subgraph must match ComponentSubgraph exactly — N, edge order,
		// vertex map, edge map — and mapping every compact edge back through
		// VertexMap/EdgeMap must land on the original graph's edge.
		sub, vm, em := res.ComponentSubgraph(b)
		type subView struct {
			N     int32        `json:"n"`
			Edges []graph.Edge `json:"edges"`
			VM    []int32      `json:"vm"`
			EM    []int32      `json:"em"`
		}
		got := mustJSON(t, subView{N: sh.Sub.N, Edges: sh.Sub.Edges, VM: sh.VertexMap, EM: sh.EdgeMap})
		want := mustJSON(t, subView{N: int32(sub.NumVertices()), Edges: sub.Edges(), VM: vm, EM: em})
		if got != want {
			t.Fatalf("block %d subgraph:\n shard    %s\n monolith %s", b, got, want)
		}
		for j, e := range sh.Sub.Edges {
			orig := g.Edges()[sh.EdgeMap[j]]
			u, v := sh.VertexMap[e.U], sh.VertexMap[e.V]
			if !(u == orig.U && v == orig.V) && !(u == orig.V && v == orig.U) {
				t.Fatalf("block %d edge %d maps to (%d,%d), original is (%d,%d)",
					b, j, u, v, orig.U, orig.V)
			}
		}
	}
}

// TestDifferentialShardEqualsMonolith is the core harness: 3 families × 4
// algorithms × 5 query kinds, byte-equal between paths.
func TestDifferentialShardEqualsMonolith(t *testing.T) {
	for _, fam := range diffFamilies() {
		for _, algo := range diffAlgorithms {
			t.Run(fmt.Sprintf("%s/%s", fam.name, algo), func(t *testing.T) {
				g, res, set := buildBoth(t, fam, algo)
				assertShardEqualsMonolith(t, g, res, set, set.Shards)
			})
		}
	}
}
