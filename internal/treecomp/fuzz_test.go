package treecomp

import (
	"encoding/binary"
	"testing"

	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/spantree"
)

// fuzzGraph decodes a simple graph: data[0] picks the family, data[1:3] the
// vertex count (1..2048), and each later 4 bytes one edge (two uint16 ids
// modulo n). Family 0 is the decoded edges alone, 1 a chain and 2 a cycle
// through every vertex with the decoded edges as chords, and 3 a forest that
// hangs vertex v under a lower id or leaves it isolated.
func fuzzGraph(data []byte) *graph.EdgeList {
	if len(data) < 3 {
		return &graph.EdgeList{N: 1}
	}
	n := int32(binary.LittleEndian.Uint16(data[1:3])%2048) + 1
	body := data[3:]
	g := &graph.EdgeList{N: n}
	switch data[0] % 4 {
	case 1:
		g.Edges = gen.Chain(int(n)).Edges
	case 2:
		if n >= 3 {
			g.Edges = gen.Cycle(int(n)).Edges
		}
	case 3:
		for v := int32(1); v < n && int(v) <= len(body); v++ {
			if b := int32(body[v-1]); b%4 != 0 {
				g.Edges = append(g.Edges, graph.Edge{U: v, V: b % v})
			}
		}
		return g
	}
	for i := 0; i+4 <= len(body); i += 4 {
		u := int32(binary.LittleEndian.Uint16(body[i:])) % n
		v := int32(binary.LittleEndian.Uint16(body[i+2:])) % n
		g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
	}
	norm, _, _ := g.Normalize()
	return norm
}

// numbered is one spanning forest of a fuzz graph, rooted and numbered.
type numbered struct {
	name   string
	td     *TreeData
	isTree []bool
}

// fuzzTrees numbers three spanning forests of g: BFS, work-stealing (both
// rooted, toured in DFS order) and SV (unrooted, toured by list ranking).
func fuzzTrees(t *testing.T, g *graph.EdgeList, c *graph.CSR) []numbered {
	t.Helper()
	m := len(g.Edges)
	var out []numbered
	for _, r := range []struct {
		name string
		f    *spantree.RootedForest
	}{{"bfs", spantree.BFS(2, c)}, {"work-stealing", spantree.WorkStealing(2, c)}} {
		td, err := Compute(2, eulertour.DFSOrder(2, g.Edges, r.f))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out = append(out, numbered{r.name, td, r.f.TreeEdgeMark(2, m)})
	}
	f := spantree.SV(2, g.N, g.Edges)
	var roots []int32
	for v, l := range f.Labels {
		if l == int32(v) {
			roots = append(roots, int32(v))
		}
	}
	tour, err := eulertour.FromForest(2, g.N, g.Edges, f.TreeEdges, roots)
	if err != nil {
		t.Fatalf("sv: %v", err)
	}
	seq, err := eulertour.Sequence(2, tour, true)
	if err != nil {
		t.Fatalf("sv: %v", err)
	}
	td, err := Compute(2, seq)
	if err != nil {
		t.Fatalf("sv: %v", err)
	}
	return append(out, numbered{"sv", td, f.Mark(2, m)})
}

// FuzzLowHigh holds both seedings of the low-high kernel to lowHighOracle
// at p = 1, 2 and 4, under BFS, work-stealing and SV trees. Chains and
// cycles of up to 2048 vertices make subtrees that span many blocks, so the
// fold's sparse table is read.
func FuzzLowHigh(f *testing.F) {
	le := binary.LittleEndian
	f.Add([]byte{0, 10, 0})                                                // isolated vertices only
	f.Add([]byte{1, 0xff, 0x07})                                           // chain of 2048
	f.Add(le.AppendUint16(le.AppendUint16([]byte{1, 0xe8, 0x03}, 5), 900)) // chain of 1001, one long chord
	f.Add([]byte{2, 0x2c, 0x01})                                           // cycle of 301
	f.Add([]byte{3, 200, 0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 200, 17})
	f.Add(append([]byte{0, 0xf3, 0x01}, []byte("a random-looking body of chords: 0123456789abcdef0123456789")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3+4*2048 {
			data = data[:3+4*2048]
		}
		g := fuzzGraph(data)
		c := graph.ToCSR(2, g)
		for _, tr := range fuzzTrees(t, g, c) {
			td := tr.td
			wantLow, wantHigh := lowHighOracle(td, g.Edges, tr.isTree)
			for _, p := range []int{1, 2, 4} {
				for seeding, run := range map[string]func() ([]int32, []int32){
					"edges": func() ([]int32, []int32) { return LowHigh(p, td, g.Edges, tr.isTree) },
					"csr":   func() ([]int32, []int32) { return LowHighCSR(p, td.Pre, td.Size, td.Parent, c) },
				} {
					low, high := run()
					for v := range wantLow {
						if low[v] != wantLow[v] || high[v] != wantHigh[v] {
							t.Fatalf("n=%d m=%d %s tree, %s seeds, p=%d: vertex %d low=%d/%d high=%d/%d",
								g.N, len(g.Edges), tr.name, seeding, p, v, low[v], wantLow[v], high[v], wantHigh[v])
						}
					}
				}
			}
		}
	})
}
