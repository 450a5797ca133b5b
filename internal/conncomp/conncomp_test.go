package conncomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

func TestShiloachVishkinSmall(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := &graph.EdgeList{N: 7, Edges: []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	}}
	labels := ShiloachVishkin(2, g.N, g.Edges)
	if Count(labels) != 3 {
		t.Fatalf("components=%d, want 3 (labels=%v)", Count(labels), labels)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("first triangle split: %v", labels[:3])
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("second triangle split: %v", labels[3:6])
	}
	if labels[6] != 6 {
		t.Errorf("isolated vertex label=%d, want 6", labels[6])
	}
}

func TestShiloachVishkinMinLabel(t *testing.T) {
	// The canonical label must be the component's minimum vertex id.
	g := gen.RandomConnected(200, 400, 3)
	labels := ShiloachVishkin(4, g.N, g.Edges)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("connected graph: label[%d]=%d, want 0", v, l)
		}
	}
}

func TestShiloachVishkinMatchesUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := gen.Random(n, m, int64(trial))
		for _, p := range []int{1, 4} {
			sv := ShiloachVishkin(p, g.N, g.Edges)
			uf := UnionFind(g.N, g.Edges)
			for v := range sv {
				if sv[v] != uf[v] {
					t.Fatalf("trial %d p=%d: vertex %d SV=%d UF=%d", trial, p, v, sv[v], uf[v])
				}
			}
		}
	}
}

func TestBFSMatchesUnionFind(t *testing.T) {
	g := gen.Disconnected(gen.Cycle(10), gen.Chain(5), gen.Star(7))
	bfs := BFS(graph.ToCSR(1, g))
	uf := UnionFind(g.N, g.Edges)
	if !SamePartition(bfs, uf) {
		t.Errorf("BFS and union-find disagree:\n%v\n%v", bfs, uf)
	}
}

func TestEmptyAndEdgeless(t *testing.T) {
	if got := ShiloachVishkin(2, 0, nil); len(got) != 0 {
		t.Errorf("n=0: %v", got)
	}
	got := ShiloachVishkin(2, 5, nil)
	for v, l := range got {
		if l != int32(v) {
			t.Errorf("edgeless: label[%d]=%d", v, l)
		}
	}
	if Count(got) != 5 {
		t.Errorf("edgeless count=%d, want 5", Count(got))
	}
}

func TestNormalize(t *testing.T) {
	labels := []int32{7, 7, 3, 7, 3, 9}
	k := Normalize(labels)
	if k != 3 {
		t.Errorf("k=%d, want 3", k)
	}
	want := []int32{0, 0, 1, 0, 1, 2}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("labels[%d]=%d, want %d", i, labels[i], want[i])
		}
	}
}

func TestSamePartition(t *testing.T) {
	if !SamePartition([]int32{1, 1, 2}, []int32{5, 5, 9}) {
		t.Error("equivalent partitions reported different")
	}
	if SamePartition([]int32{1, 1, 2}, []int32{5, 9, 9}) {
		t.Error("different partitions reported same")
	}
	if SamePartition([]int32{1}, []int32{1, 1}) {
		t.Error("length mismatch reported same")
	}
	// Refinement in one direction only must be rejected (needs bijection).
	if SamePartition([]int32{1, 1, 2, 2}, []int32{1, 1, 1, 1}) {
		t.Error("refinement reported same")
	}
}

func TestQuickSVEqualsUF(t *testing.T) {
	f := func(seed int64, nn uint8, density uint8, p uint8) bool {
		n := int(nn%60) + 1
		maxM := n * (n - 1) / 2
		m := int(density) % (maxM + 1)
		g := gen.Random(n, m, seed)
		sv := ShiloachVishkin(int(p%4)+1, g.N, g.Edges)
		uf := UnionFind(g.N, g.Edges)
		return SamePartition(sv, uf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLargeRandomGraph(t *testing.T) {
	g := gen.Random(5000, 6000, 99)
	sv := ShiloachVishkin(4, g.N, g.Edges)
	uf := UnionFind(g.N, g.Edges)
	if !SamePartition(sv, uf) {
		t.Error("SV and UF disagree on large sparse graph")
	}
}

func TestChainWorstCase(t *testing.T) {
	// A path: each of its 2,999 edges is a successful link.
	g := gen.Chain(3000)
	sv := ShiloachVishkin(4, g.N, g.Edges)
	if Count(sv) != 1 {
		t.Errorf("chain components=%d, want 1", Count(sv))
	}
}
