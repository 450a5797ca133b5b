package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomSimple builds a random simple graph directly (the gen package
// imports graph, so tests here roll their own).
func randomSimple(n, m int, seed int64) *EdgeList {
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]struct{}{}
	g := &EdgeList{N: int32(n)}
	for len(g.Edges) < m {
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		if u == v {
			continue
		}
		k := CanonKey(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		g.Edges = append(g.Edges, Edge{U: u, V: v})
	}
	return g
}

func equalEdgeLists(t *testing.T, stage string, want, got *EdgeList) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: n = %d, want %d", stage, got.N, want.N)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: m = %d, want %d", stage, len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", stage, i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestCrossFormatRoundTrip threads graphs through every serialization
// format in sequence — text → binary → dimacs → text — and asserts the
// edge list survives bit-for-bit, including edge order. Simple graphs pass
// DIMACS unchanged because Normalize is the identity on them.
func TestCrossFormatRoundTrip(t *testing.T) {
	cases := map[string]*EdgeList{
		"empty":            {N: 0},
		"vertices-only":    {N: 5}, // isolated vertices, zero edges
		"single-edge":      {N: 2, Edges: []Edge{{U: 0, V: 1}}},
		"isolated-between": {N: 10, Edges: []Edge{{U: 0, V: 9}, {U: 9, V: 3}}},
		"random-sparse":    randomSimple(200, 300, 1),
		"random-dense":     randomSimple(60, 800, 2),
		// Reversed endpoints must survive as written: formats store (u,v)
		// pairs, not canonical forms.
		"reversed": {N: 4, Edges: []Edge{{U: 3, V: 0}, {U: 2, V: 1}}},
	}
	for name, orig := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, orig); err != nil {
				t.Fatalf("write text: %v", err)
			}
			g1, err := checked(ReadLenient, &buf)
			if err != nil {
				t.Fatalf("read text: %v", err)
			}
			equalEdgeLists(t, "text", orig, g1)

			buf.Reset()
			if err := WriteBinary(&buf, g1); err != nil {
				t.Fatalf("write binary: %v", err)
			}
			g2, err := checked(ReadBinaryLenient, &buf)
			if err != nil {
				t.Fatalf("read binary: %v", err)
			}
			equalEdgeLists(t, "binary", orig, g2)

			buf.Reset()
			if err := WriteDIMACS(&buf, g2); err != nil {
				t.Fatalf("write dimacs: %v", err)
			}
			raw, err := ReadDIMACS(&buf)
			if err != nil {
				t.Fatalf("read dimacs: %v", err)
			}
			g3, loops, dups := raw.Normalize()
			if loops != 0 || dups != 0 {
				t.Fatalf("dimacs round trip invented %d loops / %d dups", loops, dups)
			}
			equalEdgeLists(t, "dimacs", orig, g3)

			buf.Reset()
			if err := Write(&buf, g3); err != nil {
				t.Fatalf("write text (final): %v", err)
			}
			g4, err := checked(ReadLenient, &buf)
			if err != nil {
				t.Fatalf("read text (final): %v", err)
			}
			equalEdgeLists(t, "text-final", orig, g4)
		})
	}
}

// TestLenientReadersPreserveDirtyEdges checks the lenient entry points pass
// self loops and duplicates through for Normalize to count, while reading
// and then building the graph with New rejects the same bytes.
func TestLenientReadersPreserveDirtyEdges(t *testing.T) {
	dirty := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 1, V: 0}}}

	var text bytes.Buffer
	if err := Write(&text, dirty); err != nil {
		t.Fatal(err)
	}
	if _, err := checked(ReadLenient, bytes.NewReader(text.Bytes())); err == nil {
		t.Fatal("strict text reader accepted a self loop")
	}
	g, err := ReadLenient(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("lenient text read: %v", err)
	}
	equalEdgeLists(t, "lenient-text", dirty, g)

	var bin bytes.Buffer
	if err := WriteBinary(&bin, dirty); err != nil {
		t.Fatal(err)
	}
	if _, err := checked(ReadBinaryLenient, bytes.NewReader(bin.Bytes())); err == nil {
		t.Fatal("strict binary reader accepted a self loop")
	}
	g, err = ReadBinaryLenient(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("lenient binary read: %v", err)
	}
	equalEdgeLists(t, "lenient-binary", dirty, g)

	norm, loops, dups := g.Normalize()
	if loops != 1 || dups != 1 || len(norm.Edges) != 2 {
		t.Fatalf("normalize: loops=%d dups=%d m=%d, want 1/1/2", loops, dups, len(norm.Edges))
	}
	// A repeated edge alone, without a self loop, is rejected too.
	dupOnly := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}}}
	text.Reset()
	bin.Reset()
	if err := Write(&text, dupOnly); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, dupOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := checked(ReadLenient, bytes.NewReader(text.Bytes())); err == nil {
		t.Fatal("strict text reader accepted a duplicate edge")
	}
	if _, err := checked(ReadBinaryLenient, bytes.NewReader(bin.Bytes())); err == nil {
		t.Fatal("strict binary reader accepted a duplicate edge")
	}
	if g, err := ReadLenient(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatalf("lenient text read: %v", err)
	} else {
		equalEdgeLists(t, "lenient-text-dup", dupOnly, g)
	}
	if g, err := ReadBinaryLenient(bytes.NewReader(bin.Bytes())); err != nil {
		t.Fatalf("lenient binary read: %v", err)
	} else {
		equalEdgeLists(t, "lenient-binary-dup", dupOnly, g)
	}

	// Lenient still enforces shape: out-of-range endpoints are not edges,
	// they are garbage, and Normalize would mask them.
	if _, err := ReadLenient(bytes.NewReader([]byte("p 2 1\n0\n"))); err == nil {
		t.Fatal("lenient text reader accepted a malformed edge line")
	}
}
