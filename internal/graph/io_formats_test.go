package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 60, 150)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || len(got.Edges) != len(g.Edges) {
		t.Fatalf("n=%d m=%d", got.N, len(got.Edges))
	}
	for i := range g.Edges {
		if got.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d: %v vs %v", i, got.Edges[i], g.Edges[i])
		}
	}
}

func TestDIMACSParsesCommentsAndCol(t *testing.T) {
	in := "c a comment\np col 3 2\ne 1 2\ne 2 3\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || len(g.Edges) != 2 || g.Edges[0] != (Edge{U: 0, V: 1}) {
		t.Errorf("parsed %+v", g)
	}
}

func TestDIMACSRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no problem line", "e 1 2\n"},
		{"duplicate problem", "p edge 2 0\np edge 2 0\n"},
		{"bad kind", "p graph 3 1\ne 1 2\n"},
		{"count mismatch", "p edge 3 2\ne 1 2\n"},
		{"zero-based", "p edge 3 1\ne 0 1\n"},
		{"out of range", "p edge 3 1\ne 1 4\n"},
		{"bad record", "p edge 3 1\nx 1 2\n"},
		{"bad fields", "p edge 3 1\ne 1\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ReadDIMACS(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 500, 2000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := checked(ReadBinaryLenient, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || len(got.Edges) != len(g.Edges) {
		t.Fatalf("n=%d m=%d", got.N, len(got.Edges))
	}
	for i := range g.Edges {
		if got.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBinaryRejects(t *testing.T) {
	if _, err := checked(ReadBinaryLenient, bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := checked(ReadBinaryLenient, bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated edge section.
	var buf bytes.Buffer
	g := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 1}, {U: 1, V: 2}}}
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := checked(ReadBinaryLenient, bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input accepted")
	}
	// Out-of-range endpoint caught by validation.
	var bad bytes.Buffer
	gb := &EdgeList{N: 2, Edges: []Edge{{U: 0, V: 1}}}
	if err := WriteBinary(&bad, gb); err != nil {
		t.Fatal(err)
	}
	raw := bad.Bytes()
	raw[len(raw)-4] = 9 // corrupt V of the only edge
	if _, err := checked(ReadBinaryLenient, bytes.NewReader(raw)); err == nil {
		t.Error("corrupt endpoint accepted")
	}
}

func TestWriteErrorPropagation(t *testing.T) {
	g := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 1}}}
	// A writer that always fails must surface the error through every
	// serializer.
	for name, write := range map[string]func(*EdgeList) error{
		"text":   func(g *EdgeList) error { return Write(failWriter{}, g) },
		"dimacs": func(g *EdgeList) error { return WriteDIMACS(failWriter{}, g) },
		"binary": func(g *EdgeList) error { return WriteBinary(failWriter{}, g) },
	} {
		if err := write(g); err == nil {
			t.Errorf("%s: write error swallowed", name)
		}
	}
}

func TestMatrixFromEdgeListRejectsHuge(t *testing.T) {
	if _, err := MatrixFromEdgeList(&EdgeList{N: 1 << 20}); err == nil {
		t.Error("huge matrix accepted")
	}
}
