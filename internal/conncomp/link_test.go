package conncomp_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"bicc/internal/conncomp"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
)

// forestError checks tree, edge ids into edges, against labels (already
// checked to be UnionFind's): exactly n − #components edges, no cycle, and
// each edge inside one component. It returns nil when tree is a spanning
// forest.
func forestError(n int32, edges []graph.Edge, labels, tree []int32) error {
	if want := int(n) - conncomp.Count(labels); len(tree) != want {
		return fmt.Errorf("forest has %d edges, want n-#comp = %d", len(tree), want)
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, id := range tree {
		e := edges[id]
		if labels[e.U] != labels[e.V] {
			return fmt.Errorf("tree edge %d (%d,%d) joins two components", id, e.U, e.V)
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			return fmt.Errorf("tree edge %d (%d,%d) creates a cycle", id, e.U, e.V)
		}
		parent[ru] = rv
	}
	return nil
}

// labelsError reports the first vertex whose label differs from want's.
func labelsError(got, want []int32) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("label[%d] = %d, UnionFind's %d", v, got[v], want[v])
		}
	}
	return nil
}

// linkError runs Link at p workers over the edges mask keeps (nil keeps
// all), with and without a hook array, and compares both against UnionFind
// over the kept edges: the labels must be equal, not merely the same
// partition, and the hooked edges must be kept edges that form a spanning
// forest of them, the edge hooked at r lying in r's component.
func linkError(p int, n int32, edges []graph.Edge, mask []bool) error {
	kept := edges
	if mask != nil {
		kept = nil
		for i, e := range edges {
			if mask[i] {
				kept = append(kept, e)
			}
		}
	}
	want := conncomp.UnionFind(n, kept)
	if err := labelsError(conncomp.Link(nil, p, n, edges, mask, nil), want); err != nil {
		return fmt.Errorf("p=%d: %w", p, err)
	}
	hook := make([]int32, n)
	if err := labelsError(conncomp.Link(nil, p, n, edges, mask, hook), want); err != nil {
		return fmt.Errorf("p=%d with hook: %w", p, err)
	}
	var tree []int32
	for r, id := range hook {
		if id == -1 {
			continue
		}
		if mask != nil && !mask[id] {
			return fmt.Errorf("p=%d: hook[%d] = edge %d, which the mask drops", p, r, id)
		}
		if e := edges[id]; want[e.U] != want[r] {
			return fmt.Errorf("p=%d: hook[%d] = edge %d (%d,%d) outside %d's component", p, r, id, e.U, e.V, r)
		}
		tree = append(tree, id)
	}
	if err := forestError(n, edges, want, tree); err != nil {
		return fmt.Errorf("p=%d: %w", p, err)
	}
	return nil
}

// FuzzLink checks the kernel against its UnionFind oracle on arbitrary edge
// multisets over n ≤ 512 vertices: self-loops, duplicates and both
// orientations of a pair. Each edge is four bytes, two little-endian
// endpoints taken mod n. Every input runs twice: over all edges (a nil
// mask), and under the mask drop draws, which drops edge i when bit i of
// drop is set (edges past its last bit are kept), as Label-edge's mask and
// the nontree mask of TV-filter's forest drop edges of G.
func FuzzLink(f *testing.F) {
	f.Add(uint16(0), []byte{}, []byte{})
	f.Add(uint16(5), []byte{}, []byte{})
	f.Add(uint16(3), []byte{0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 0}, []byte{0b010})           // triangle, one side dropped
	f.Add(uint16(4), []byte{1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 2, 0}, []byte{0b100})           // self-loop, pair both ways
	f.Add(uint16(4), []byte{0, 0, 3, 0, 0, 0, 3, 0, 3, 0, 0, 0}, []byte{0b011})           // duplicates
	f.Add(uint16(511), []byte{255, 1, 0, 0, 254, 1, 255, 1, 7, 0, 6}, []byte{0xff, 0xff}) // high ids, ragged tail
	f.Fuzz(func(t *testing.T, nn uint16, data, drop []byte) {
		n := int32(nn % 513)
		var edges []graph.Edge
		if n > 0 {
			for i := 0; i+3 < len(data); i += 4 {
				u := int32(binary.LittleEndian.Uint16(data[i:])) % n
				v := int32(binary.LittleEndian.Uint16(data[i+2:])) % n
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		mask := make([]bool, len(edges))
		for i := range mask {
			mask[i] = i/8 >= len(drop) || drop[i/8]>>(i%8)&1 == 0
		}
		for _, p := range []int{1, 2, 4} {
			if err := linkError(p, n, edges, nil); err != nil {
				t.Fatal(err)
			}
			if err := linkError(p, n, edges, mask); err != nil {
				t.Fatalf("masked: %v", err)
			}
		}
	})
}

// TestLinkContention drives the cases no random input is likely to: long
// find paths (a chain listed in either order) and many CASes lost on one
// root (a star around the largest id, K_64, one edge repeated). Each runs
// several times at p=4, so that `make race` sees the races; the labels must
// equal UnionFind's, and spantree.SV must return a spanning forest.
func TestLinkContention(t *testing.T) {
	descending := gen.Chain(3000)
	slices.Reverse(descending.Edges)
	star := &graph.EdgeList{N: 2000}
	for i := int32(0); i < star.N-1; i++ {
		star.Edges = append(star.Edges, graph.Edge{U: star.N - 1, V: i})
	}
	repeated := &graph.EdgeList{N: 4}
	for i := 0; i < 1000; i++ {
		repeated.Edges = append(repeated.Edges, graph.Edge{U: 3, V: 1})
	}
	for name, g := range map[string]*graph.EdgeList{
		"chain-ascending":  gen.Chain(3000),
		"chain-descending": descending,
		"star-on-max":      star,
		"K64":              gen.Dense(64, 1, 0),
		"repeated-edge":    repeated,
	} {
		t.Run(name, func(t *testing.T) {
			for rep := 0; rep < 10; rep++ {
				if err := linkError(4, g.N, g.Edges, nil); err != nil {
					t.Fatal(err)
				}
				f := spantree.SV(4, g.N, g.Edges)
				if err := labelsError(f.Labels, conncomp.UnionFind(g.N, g.Edges)); err != nil {
					t.Fatalf("SV: %v", err)
				}
				if err := forestError(g.N, g.Edges, f.Labels, f.TreeEdges); err != nil {
					t.Fatalf("SV: %v", err)
				}
			}
		})
	}
}
