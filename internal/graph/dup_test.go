package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// refValidate is the check New replaced, kept as the reference for its
// duplicate check: ranges and self loops by the same loop, then
// firstDuplicate, a counting sort of the edge ids by smaller endpoint.
func refValidate(g *EdgeList) error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self loop at %d", i, e.U)
		}
	}
	if i := firstDuplicate(g); i >= 0 {
		e := g.Edges[i]
		return fmt.Errorf("graph: duplicate edge %d (%d,%d)", i, e.U, e.V)
	}
	return nil
}

// firstDuplicate returns the index of the first edge that repeats an
// earlier one, or -1. Endpoints must be in range. It buckets edge ids by
// their smaller endpoint with a counting sort, so every bucket lists its
// edges in index order, then stamps each bucket's larger endpoints: the
// first stamp collision in a bucket is that bucket's first repeat.
func firstDuplicate(g *EdgeList) int {
	if len(g.Edges) < 2 {
		return -1
	}
	start := make([]int32, g.N+1)
	for _, e := range g.Edges {
		start[min(e.U, e.V)+1]++
	}
	for v := int32(0); v < g.N; v++ {
		start[v+1] += start[v]
	}
	ids := make([]int32, len(g.Edges))
	next := append([]int32(nil), start[:g.N]...)
	for i, e := range g.Edges {
		lo := min(e.U, e.V)
		ids[next[lo]] = int32(i)
		next[lo]++
	}
	stamp := next // reused: lo+1 of the bucket that last listed v
	clear(stamp)
	first := -1
	for lo := int32(0); lo < g.N; lo++ {
		for _, i := range ids[start[lo]:start[lo+1]] {
			e := g.Edges[i]
			hi := max(e.U, e.V)
			if stamp[hi] == lo+1 {
				if first < 0 || int(i) < first {
					first = int(i)
				}
				break
			}
			stamp[hi] = lo + 1
		}
	}
	return first
}

// sameVerdict fails unless New at p workers accepts el exactly when
// refValidate does, with the same error text.
func sameVerdict(t *testing.T, el *EdgeList, p int) {
	t.Helper()
	want := ""
	if err := refValidate(el); err != nil {
		want = err.Error()
	}
	got := ""
	if _, err := New(el, p); err != nil {
		got = err.Error()
	}
	if got != want {
		t.Fatalf("p=%d, n=%d, %d edges: New says %q, the reference %q", p, el.N, len(el.Edges), got, want)
	}
}

// FuzzDuplicateCheck holds New's check to refValidate on arbitrary edge
// lists over at most 256 vertices, at p = 1 and 2. The first byte is the
// vertex count n and each later pair an edge, its endpoints taken modulo
// n+1, so out-of-range endpoints, self loops and repeats in either
// orientation all occur.
func FuzzDuplicateCheck(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 1, 0})    // reversed repeat
	f.Add([]byte{5, 0, 1, 3, 4, 1, 2, 4, 3})    // repeat at a later bucket
	f.Add([]byte{4, 0, 1, 0, 1, 2, 2})          // repeat before a self loop
	f.Add([]byte{3, 0, 3, 0, 1, 0, 1})          // out of range before a repeat
	f.Add([]byte{255, 254, 0, 7, 9, 0, 254, 1}) // wide ids
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		el := &EdgeList{N: int32(data[0])}
		for i := 1; i+1 < len(data); i += 2 {
			span := int(el.N) + 1
			el.Edges = append(el.Edges, Edge{U: int32(int(data[i]) % span), V: int32(int(data[i+1]) % span)})
		}
		for _, p := range []int{1, 2} {
			sameVerdict(t, el, p)
		}
	})
}

// TestDuplicateCheckParallelScatter plants repeats in edge lists large
// enough (m ≥ 2^16, m ≥ n) for ToCSR's parallel count and scatter, which
// fuzz inputs never reach: New at p = 2 and 4 must name the edge
// refValidate names, and the parallel CSR must list each vertex's arcs in
// edge-id order, the order the stamp pass relies on.
func TestDuplicateCheckParallelScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	base := randomGraph(rng, 3000, 1<<17)
	c := ToCSR(2, base)
	for v := int32(0); v < c.N; v++ {
		for a := c.Off[v] + 1; a < c.Off[v+1]; a++ {
			if c.EdgeID[a-1] >= c.EdgeID[a] {
				t.Fatalf("vertex %d lists edge %d before edge %d", v, c.EdgeID[a-1], c.EdgeID[a])
			}
		}
	}
	for trial := 0; trial < 6; trial++ {
		el := base.Clone()
		for k := 0; k < 1+trial; k++ {
			j := rng.Intn(len(el.Edges) - 1)
			i := j + 1 + rng.Intn(len(el.Edges)-j-1)
			e := el.Edges[j]
			if k%2 == 1 {
				e.U, e.V = e.V, e.U
			}
			el.Edges[i] = e
		}
		if refValidate(el) == nil {
			t.Fatalf("trial %d planted no repeat", trial)
		}
		for _, p := range []int{2, 4} {
			sameVerdict(t, el, p)
		}
	}
	for _, p := range []int{2, 4} {
		sameVerdict(t, base, p)
	}
}
