package graph

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bicc/internal/par"
)

// torus returns a side×side torus in row-major ids, or with its ids
// permuted by seed when permute is set.
func torus(side int, permute bool, seed int64) *EdgeList {
	n := side * side
	id := make([]int32, n)
	for v := range id {
		id[v] = int32(v)
	}
	if permute {
		for v, w := range rand.New(rand.NewSource(seed)).Perm(n) {
			id[v] = int32(w)
		}
	}
	el := &EdgeList{N: int32(n)}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			el.Edges = append(el.Edges,
				Edge{U: id[v], V: id[r*side+(c+1)%side]},
				Edge{U: id[v], V: id[((r+1)%side)*side+c]})
		}
	}
	return el
}

// checkView holds a relabeling to its contract: perm is a bijection on
// [0, n), the view's edge i is (perm[u_i], perm[v_i]), and its CSR equals
// ToCSR of its edge list.
func checkView(t *testing.T, el *EdgeList, perm []int32, view *Graph) {
	t.Helper()
	if len(perm) != int(el.N) || view.N != el.N || len(view.Edges) != len(el.Edges) {
		t.Fatalf("view of n=%d m=%d: %d perm entries, n=%d m=%d", el.N, len(el.Edges), len(perm), view.N, len(view.Edges))
	}
	hit := make([]bool, el.N)
	for v, w := range perm {
		if w < 0 || w >= el.N || hit[w] {
			t.Fatalf("perm[%d] = %d: not a bijection on [0, %d)", v, w, el.N)
		}
		hit[w] = true
	}
	for i, e := range el.Edges {
		if want := (Edge{U: perm[e.U], V: perm[e.V]}); view.Edges[i] != want {
			t.Fatalf("view edge %d = %v, want %v", i, view.Edges[i], want)
		}
	}
	got, fresh := view.CSR(1)
	want := ToCSR(1, view.EdgeList)
	if fresh || !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.EdgeID, want.EdgeID) {
		t.Fatalf("view CSR (built with the view: %v) differs from ToCSR of its edges", !fresh)
	}
}

// FuzzRelabel checks the local view on arbitrary simple graphs of up to
// 256 vertices, at p = 1..4: the numbering is a bijection, the view keeps
// the edge order under it, and its gathered CSR equals ToCSR's.
func FuzzRelabel(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{200, 3, 9, 4, 4, 7, 100, 150, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, p := 1+int32(data[0]), 1+int(data[1]%4)
		seen := map[uint64]bool{}
		el := &EdgeList{N: n}
		for i := 2; i+1 < len(data); i += 2 {
			u, v := int32(data[i])%n, int32(data[i+1])%n
			if u != v && !seen[CanonKey(u, v)] {
				seen[CanonKey(u, v)] = true
				el.Edges = append(el.Edges, Edge{U: u, V: v})
			}
		}
		perm, view := Relabel(nil, p, ToCSR(p, el), el)
		checkView(t, el, perm, view)
	})
}

// TestLocalDecision runs the decision on one graph of each kind: below the
// floor nothing is decided or converted; a permuted torus gets a view and
// drops its own CSR; a row-major torus, whose ids are already local, is
// kept without a conversion; and a random graph, which the probe rejects,
// keeps the CSR it converted. Only the first call above the floor is fresh.
func TestLocalDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name               string
		el                 *EdgeList
		decided, view, csr bool
		conversions        int64
	}{
		{"below the floor", randomGraph(rng, 2000, 9000), false, false, false, 0},
		{"permuted torus", torus(256, true, 1), true, true, false, 1},
		{"row-major torus", torus(256, false, 0), true, false, false, 0},
		{"random", randomGraph(rng, localFloor, 8*localFloor), true, false, true, 1},
	}
	for _, c := range cases {
		g := Wrap(c.el)
		before := conversions.Load()
		start := time.Now()
		l, fresh, converted, err := g.Local(nil, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fresh != c.decided || (l != g) != c.view || (g.csr.Load() != nil) != c.csr {
			t.Fatalf("%s: fresh=%v view=%v own CSR=%v; want %v, %v, %v", c.name, fresh, l != g, g.csr.Load() != nil, c.decided, c.view, c.csr)
		}
		reported := !converted.IsZero() && !converted.Before(start) && !converted.After(time.Now())
		if n := conversions.Load() - before; n != c.conversions || reported != (n == 1) {
			t.Fatalf("%s: %d conversions, reported at %v; want %d", c.name, n, converted, c.conversions)
		}
		if c.view {
			vc, fresh := l.CSR(1)
			if fresh || vc == nil {
				t.Fatalf("%s: the view has no CSR of its own", c.name)
			}
		}
		again, fresh, converted, err := g.Local(nil, 1)
		if err != nil || fresh || !converted.IsZero() || again != l {
			t.Fatalf("%s: second call fresh=%v converted=%v same=%v err=%v", c.name, fresh, !converted.IsZero(), again == l, err)
		}
	}
}

// TestLocalCachesNothingOnFailure: a decision canceled between passes, or
// one that panics, caches nothing, and the next call decides again.
func TestLocalCachesNothingOnFailure(t *testing.T) {
	el := torus(256, true, 2)
	g := Wrap(el)
	cn := &par.Canceler{}
	cause := errors.New("stop")
	cn.Cancel(cause)
	if _, _, _, err := g.Local(cn, 2); !errors.Is(err, cause) {
		t.Fatalf("canceled decision returned %v, want its cause", err)
	}
	if g.local.Load() != nil {
		t.Fatal("a canceled decision was cached")
	}
	bad := el.Clone()
	bad.Edges[0].V = bad.N + 5 // out of range: the conversion panics
	g = Wrap(bad)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("converting an out-of-range edge did not panic")
			}
		}()
		g.Local(nil, 2)
	}()
	if g.local.Load() != nil || g.csr.Load() != nil {
		t.Fatal("a decision that panicked cached something")
	}
	bad.Edges[0] = el.Edges[0]
	l, fresh, _, err := g.Local(nil, 2)
	if err != nil || !fresh || l == g {
		t.Fatalf("after the failures: fresh=%v view=%v err=%v; want a fresh view", fresh, l != g, err)
	}
}

// TestLocalConcurrentDecidesOnce races eight first calls on a permuted
// torus: one conversion, one view, and every call reports the decision as
// fresh because it made it or waited for it.
func TestLocalConcurrentDecidesOnce(t *testing.T) {
	g := Wrap(torus(256, true, 3))
	before := conversions.Load()
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			l, fresh, _, err := g.Local(nil, 1+i%2)
			if err != nil || !fresh {
				t.Errorf("call %d: fresh=%v err=%v", i, fresh, err)
			}
			got[i] = l
		}(i)
	}
	close(start)
	wg.Wait()
	for i, l := range got {
		if l == nil || l == g || l != got[0] {
			t.Fatalf("call %d got view %p, call 0 got %p (graph %p)", i, l, got[0], g)
		}
	}
	if n := conversions.Load() - before; n != 1 {
		t.Fatalf("eight racing first calls made %d conversions, want 1", n)
	}
}

// TestRelabelTorus checks the view's contract on a permuted torus, that
// the probe needs the 45 levels EXPERIMENTS fits against (about 2k²
// vertices lie within k levels), and that BFS order makes the ids local.
func TestRelabelTorus(t *testing.T) {
	el := torus(128, true, 4)
	c := ToCSR(2, el)
	if _, _, levels := bfsOrder(c, probeVisits); levels != 45 {
		t.Fatalf("probe: %d levels to reach %d vertices, want 45", levels, probeVisits)
	}
	perm, view := Relabel(nil, 2, c, el)
	checkView(t, el, perm, view)
	if idsLocal(el) || !idsLocal(view.EdgeList) {
		t.Fatalf("ids local: permuted %v, relabeled %v; want false, true", idsLocal(el), idsLocal(view.EdgeList))
	}
}
