package spantree

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

// stepRules are the three rules a BFS runs under: the fitted switch and
// each step kind forced at every level.
var stepRules = map[string]stepRule{
	"fitted":    fittedSteps,
	"top-down":  topDownSteps,
	"bottom-up": bottomUpSteps,
}

// queueBFS is the sequential reference: a FIFO queue from each unvisited
// vertex in increasing id order. It returns every vertex's level and the
// roots.
func queueBFS(c *graph.CSR) (level, roots []int32) {
	level = make([]int32, c.N)
	for i := range level {
		level[i] = -1
	}
	queue := make([]int32, 0, c.N)
	for r := int32(0); r < c.N; r++ {
		if level[r] != -1 {
			continue
		}
		level[r] = 0
		roots = append(roots, r)
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range c.Adj[c.Off[v]:c.Off[v+1]] {
				if level[u] == -1 {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return level, roots
}

// checkBFS holds f to the queue BFS over the same CSR: the same level on
// every vertex and the same roots, each its component's least id, with
// every other vertex's parent one level up and its parent edge joining the
// two.
func checkBFS(t *testing.T, what string, g *graph.EdgeList, c *graph.CSR, f *RootedForest) {
	t.Helper()
	level, roots := queueBFS(c)
	if !slices.Equal(f.Roots, roots) {
		t.Fatalf("%s: roots %v, want %v", what, f.Roots, roots)
	}
	for v := int32(0); v < g.N; v++ {
		if f.Level[v] != level[v] {
			t.Fatalf("%s: vertex %d at level %d, want %d", what, v, f.Level[v], level[v])
		}
		p := f.Parent[v]
		if level[v] == 0 {
			if p != v || f.ParentEdge[v] != -1 {
				t.Fatalf("%s: root %d has parent %d over edge %d", what, v, p, f.ParentEdge[v])
			}
			continue
		}
		if p < 0 || p >= g.N || level[p] != level[v]-1 {
			t.Fatalf("%s: vertex %d at level %d has parent %d", what, v, level[v], p)
		}
		id := f.ParentEdge[v]
		if id < 0 || int(id) >= len(g.Edges) {
			t.Fatalf("%s: vertex %d has parent edge %d", what, v, id)
		}
		if e := g.Edges[id]; !(e.U == v && e.V == p || e.V == v && e.U == p) {
			t.Fatalf("%s: vertex %d has parent %d but parent edge %d = %v", what, v, p, id, e)
		}
	}
}

// TestBFSAllocsDoNotGrowWithLevels: on BlockChain(5000, 8), about 5,000
// levels of a few vertices each, one BFS allocates a fixed number of
// objects (14 at p=1 and 20 at p=2 when written), with no closure or
// goroutine per level.
func TestBFSAllocsDoNotGrowWithLevels(t *testing.T) {
	c := graph.ToCSR(1, gen.BlockChain(5000, 8))
	for _, p := range []int{1, 2} {
		if a := testing.AllocsPerRun(5, func() { BFS(p, c) }); a > 32 {
			t.Errorf("p=%d: %.0f allocations per BFS, want at most 32", p, a)
		}
	}
}

// fuzzGraph decodes a graph: data[0] picks the family, data[1:3] the vertex
// count (1..2048), and each later 4 bytes one edge (two uint16 ids modulo
// n). Family 0 is the decoded edges alone, which leaves most vertices
// isolated; 1 a chain and 2 a star through every vertex, with the decoded
// edges as chords; and 3 a forest that hangs vertex v under a lower id or
// leaves it a root. Self-loops and repeats are dropped.
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
		g.Edges = gen.Star(int(n)).Edges
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

// FuzzBFS holds the BFS to a sequential queue BFS on arbitrary graphs of
// up to 2048 vertices at p = 1, 2 and 4, under the fitted step rule and
// with every step forced top-down or bottom-up.
func FuzzBFS(f *testing.F) {
	le := binary.LittleEndian
	f.Add([]byte{0, 10, 0})                                                // isolated vertices only
	f.Add([]byte{1, 0xff, 0x07})                                           // chain of 2048
	f.Add(le.AppendUint16(le.AppendUint16([]byte{1, 0xe8, 0x03}, 5), 900)) // chain of 1001, one long chord
	f.Add([]byte{2, 0xff, 0x07})                                           // star of 2048
	f.Add([]byte{3, 200, 0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 200, 17})
	f.Add(append([]byte{0, 0xf3, 0x01}, []byte("a random-looking body of chords: 0123456789abcdef0123456789")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3+4*2048 {
			data = data[:3+4*2048]
		}
		g := fuzzGraph(data)
		c := graph.ToCSR(2, g)
		for _, p := range []int{1, 2, 4} {
			for rname, rule := range stepRules {
				checkBFS(t, fmt.Sprintf("n=%d m=%d p=%d %s", g.N, len(g.Edges), p, rname), g, c, bfs(nil, p, c, rule))
			}
		}
	})
}
