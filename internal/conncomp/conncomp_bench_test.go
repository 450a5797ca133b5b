package conncomp

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

// BenchmarkConnectedComponents times the kernel against the sequential
// union-find oracle on a random graph and on the permuted 512×512 torus of the
// engines-torus workload, whose ids carry no locality.
func BenchmarkConnectedComponents(b *testing.B) {
	torus := gen.Torus(512, 512)
	perm := rand.New(rand.NewSource(1)).Perm(int(torus.N))
	for i, e := range torus.Edges {
		torus.Edges[i] = graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	p := runtime.GOMAXPROCS(0)
	for _, in := range []struct {
		name string
		g    *graph.EdgeList
	}{
		{"random", gen.RandomConnected(100_000, 400_000, 1)},
		{"torus", torus},
	} {
		g := in.g
		b.Run(in.name+"/link/p=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Link(nil, 1, g.N, g.Edges, nil, nil)
			}
		})
		b.Run(in.name+"/link/p=max", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Link(nil, p, g.N, g.Edges, nil, nil)
			}
		})
		b.Run(in.name+"/union-find", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				UnionFind(g.N, g.Edges)
			}
		})
	}
}

// A chain listed in descending order makes every link lengthen one long
// path that later finds must walk.
func BenchmarkLinkChain(b *testing.B) {
	g := gen.Chain(100_000)
	slices.Reverse(g.Edges)
	p := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		Link(nil, p, g.N, g.Edges, nil, nil)
	}
}
