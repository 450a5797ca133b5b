package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func triangle() *EdgeList {
	return &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}, {2, 0}}}
}

// TestValidate checks that New accepts a simple graph, holding its CSR,
// and rejects each kind of invalid one.
func TestValidate(t *testing.T) {
	before := conversions.Load()
	g, err := New(triangle(), 1)
	if err != nil {
		t.Fatalf("valid triangle rejected: %v", err)
	}
	if _, fresh := g.CSR(2); fresh || conversions.Load()-before != 1 {
		t.Errorf("New left no CSR: fresh=%v, %d conversions", fresh, conversions.Load()-before)
	}
	cases := []struct {
		name string
		g    *EdgeList
	}{
		{"negative n", &EdgeList{N: -1}},
		{"endpoint too big", &EdgeList{N: 2, Edges: []Edge{{0, 2}}}},
		{"negative endpoint", &EdgeList{N: 2, Edges: []Edge{{-1, 1}}}},
		{"self loop", &EdgeList{N: 2, Edges: []Edge{{1, 1}}}},
		{"duplicate", &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}, {0, 1}}}},
		{"reversed duplicate", &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}, {1, 0}}}},
	}
	for _, c := range cases {
		if _, err := New(c.g, 1); err == nil {
			t.Errorf("%s: New accepted invalid graph", c.name)
		}
	}
}

// TestValidateNamesFirstDuplicate checks New's duplicate check against a
// map over random multigraphs: the error must name the first edge that
// repeats an earlier one.
func TestValidateNamesFirstDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := int32(2 + rng.Intn(12))
		g := &EdgeList{N: n}
		for m := rng.Intn(30); len(g.Edges) < m; {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v {
				g.Edges = append(g.Edges, Edge{u, v})
			}
		}
		want := ""
		seen := map[uint64]bool{}
		for i, e := range g.Edges {
			if seen[CanonKey(e.U, e.V)] {
				want = fmt.Sprintf("graph: duplicate edge %d (%d,%d)", i, e.U, e.V)
				break
			}
			seen[CanonKey(e.U, e.V)] = true
		}
		got := ""
		if _, err := New(g, 1); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("trial %d: New(%v) = %q, want %q", trial, g.Edges, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	g := &EdgeList{N: 4, Edges: []Edge{{0, 1}, {1, 0}, {2, 2}, {1, 2}, {0, 1}, {3, 0}}}
	out, loops, dups := g.Normalize()
	if loops != 1 {
		t.Errorf("loops=%d, want 1", loops)
	}
	if dups != 2 {
		t.Errorf("dups=%d, want 2", dups)
	}
	want := []Edge{{0, 1}, {1, 2}, {3, 0}}
	if len(out.Edges) != len(want) {
		t.Fatalf("normalized edges=%v, want %v", out.Edges, want)
	}
	for i := range want {
		if out.Edges[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, out.Edges[i], want[i])
		}
	}
}

func TestCanonKeySymmetric(t *testing.T) {
	f := func(u, v int32) bool { return CanonKey(u, v) == CanonKey(v, u) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *EdgeList {
	g := &EdgeList{N: int32(n)}
	seen := map[uint64]struct{}{}
	for len(g.Edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		k := CanonKey(u, v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		g.Edges = append(g.Edges, Edge{u, v})
	}
	return g
}

func csrInvariants(t *testing.T, g *EdgeList, c *CSR) {
	t.Helper()
	n, m := int(g.N), len(g.Edges)
	if len(c.Off) != n+1 || c.Off[0] != 0 || int(c.Off[n]) != 2*m {
		t.Fatalf("bad offsets: len=%d first=%d last=%d (n=%d m=%d)", len(c.Off), c.Off[0], c.Off[n], n, m)
	}
	for v := 0; v < n; v++ {
		if c.Off[v] > c.Off[v+1] {
			t.Fatalf("offsets not monotone at %d", v)
		}
	}
	// Each arc must correspond to its edge id's endpoints.
	arcCount := make([]int, m)
	for v := int32(0); v < c.N; v++ {
		for i := c.Off[v]; i < c.Off[v+1]; i++ {
			w := c.Adj[i]
			id := c.EdgeID[i]
			e := g.Edges[id]
			if !((e.U == v && e.V == w) || (e.V == v && e.U == w)) {
				t.Fatalf("arc (%d,%d) claims edge %d = %v", v, w, id, e)
			}
			arcCount[id]++
		}
	}
	for id, cnt := range arcCount {
		if cnt != 2 {
			t.Fatalf("edge %d appears as %d arcs, want 2", id, cnt)
		}
	}
}

func TestToCSRSmall(t *testing.T) {
	g := triangle()
	c := ToCSR(1, g)
	csrInvariants(t, g, c)
	if c.Degree(0) != 2 || c.Degree(1) != 2 || c.Degree(2) != 2 {
		t.Errorf("triangle degrees = %d,%d,%d, want 2,2,2", c.Degree(0), c.Degree(1), c.Degree(2))
	}
}

func TestToCSRParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Large enough to trigger both parallel histogram and parallel scatter.
	g := randomGraph(rng, 2000, 1<<17)
	c1 := ToCSR(1, g)
	c4 := ToCSR(4, g)
	csrInvariants(t, g, c1)
	csrInvariants(t, g, c4)
	for v := 0; v <= int(g.N); v++ {
		if c1.Off[v] != c4.Off[v] {
			t.Fatalf("offset mismatch at %d: %d vs %d", v, c1.Off[v], c4.Off[v])
		}
	}
	// Adjacency order may differ between schedules; compare as multisets
	// per vertex.
	for v := int32(0); v < g.N; v++ {
		a := append([]int32(nil), c1.Neighbors(v)...)
		b := append([]int32(nil), c4.Neighbors(v)...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

// TestToCSRWorkersCappedByEdges: a conversion runs at most 2m/n workers,
// so its p count arrays over the vertices, 4pn bytes, never outweigh the
// edges' 8m. On a list with as many edges as vertices, p = 8 and 32 would
// allocate 32n and 128n bytes of them; capped at 2 workers, the whole
// conversion allocates at most its CSR and 8m, and builds the CSR p = 1
// builds.
func TestToCSRWorkersCappedByEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 17
	g := randomGraph(rng, n, n)
	want := ToCSR(1, g)
	bound := uint64(16*n+4*(n+1)) + 8*n + 64<<10
	for _, p := range []int{8, 32} {
		var c *CSR
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c = ToCSR(p, g)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("p=%d: converting %d edges over %d vertices allocated %d bytes, over %d", p, n, n, got, bound)
		}
		for i := range want.Adj {
			if c.Adj[i] != want.Adj[i] || c.EdgeID[i] != want.EdgeID[i] {
				t.Fatalf("p=%d: arc %d is (%d, edge %d), p=1 built (%d, edge %d)", p, i, c.Adj[i], c.EdgeID[i], want.Adj[i], want.EdgeID[i])
			}
		}
	}
}

func TestToCSREmptyAndIsolated(t *testing.T) {
	g := &EdgeList{N: 5} // 5 isolated vertices
	c := ToCSR(2, g)
	csrInvariants(t, g, c)
	for v := int32(0); v < 5; v++ {
		if c.Degree(v) != 0 {
			t.Errorf("isolated vertex %d has degree %d", v, c.Degree(v))
		}
	}
	g0 := &EdgeList{N: 0}
	c0 := ToCSR(2, g0)
	if len(c0.Adj) != 0 || len(c0.Off) != 1 {
		t.Errorf("empty graph CSR: %+v", c0)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 50, 120)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLenient(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(got, 1); err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || len(got.Edges) != len(g.Edges) {
		t.Fatalf("round trip mismatch: n=%d m=%d", got.N, len(got.Edges))
	}
	for i := range g.Edges {
		if got.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d: %v vs %v", i, got.Edges[i], g.Edges[i])
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "q 3 2\n0 1\n1 2\n"},
		{"edge count mismatch", "p 3 2\n0 1\n"},
		{"non-integer", "p 3 1\n0 x\n"},
		{"too many fields", "p 3 1\n0 1 2\n"},
		{"out of range", "p 3 1\n0 3\n"},
		{"self loop", "p 3 1\n1 1\n"},
	}
	for _, c := range cases {
		if g, err := ReadLenient(strings.NewReader(c.in)); err == nil {
			if _, err := New(g, 1); err == nil {
				t.Errorf("%s: ReadLenient and New accepted malformed input", c.name)
			}
		}
	}
}

func TestReadAllowsCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\np 3 1\n# another\n0 2\n"
	g, err := ReadLenient(strings.NewReader(in))
	if err == nil {
		_, err = New(g, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || len(g.Edges) != 1 || g.Edges[0] != (Edge{0, 2}) {
		t.Errorf("parsed %+v", g)
	}
}

func TestClone(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.Edges[0].U = 99
	if g.Edges[0].U == 99 {
		t.Error("Clone shares edge storage")
	}
}

func TestCSRM(t *testing.T) {
	g := triangle()
	if got := ToCSR(1, g).M(); got != 3 {
		t.Errorf("M=%d, want 3", got)
	}
}

// TestGraphCSROnce checks the shared CSR: the first call converts and
// reports it, later calls at any worker count get the same CSR without
// converting, and eight goroutines racing on a fresh graph convert once.
func TestGraphCSROnce(t *testing.T) {
	el := randomGraph(rand.New(rand.NewSource(7)), 500, 3000)
	g := Wrap(el)
	before := conversions.Load()
	c, fresh := g.CSR(2)
	if !fresh {
		t.Fatal("first call did not report its conversion")
	}
	csrInvariants(t, el, c)
	for _, p := range []int{1, 2, 4} {
		if again, fresh := g.CSR(p); fresh || again != c {
			t.Fatalf("p=%d: fresh=%v, same CSR=%v; want the first call's CSR, not fresh", p, fresh, again == c)
		}
	}
	if n := conversions.Load() - before; n != 1 {
		t.Fatalf("%d conversions, want 1", n)
	}

	g = Wrap(el)
	before = conversions.Load()
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]*CSR, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], _ = g.CSR(1 + i%4)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("goroutine %d got CSR %p, goroutine 0 got %p", i, c, got[0])
		}
	}
	if n := conversions.Load() - before; n != 1 {
		t.Fatalf("eight racing first calls made %d conversions, want 1", n)
	}
}

// TestGraphCSRPanicCachesNothing checks that a conversion that panics
// leaves no CSR behind: the next call converts again.
func TestGraphCSRPanicCachesNothing(t *testing.T) {
	el := &EdgeList{N: 2, Edges: []Edge{{U: 0, V: 5}}} // out of range: ToCSR panics
	g := Wrap(el)
	for k := 0; k < 2; k++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d: conversion of an out-of-range edge did not panic", k)
				}
			}()
			g.CSR(1)
		}()
	}
	el.Edges[0] = Edge{U: 0, V: 1}
	c, fresh := g.CSR(1)
	if !fresh || c == nil || c.M() != 1 {
		t.Fatalf("after two panics: fresh=%v CSR=%+v, want a fresh one-edge CSR", fresh, c)
	}
}
