// These tests live in package core_test (not core) so the differential can
// run every engine through the public API, which itself imports core.
package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bicc"
	"bicc/internal/core"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// refTree is the reference the block index is checked against: the
// slice-of-slices block-cut tree builder the index replaced, as it was
// minus its unused per-cut block lists. Its accessors used to panic on
// out-of-range ids; at answers nil for them, as the index does.
type refTree struct {
	NumBlocks     int
	Cuts          []int32
	BlockCuts     [][]int32
	BlockVertices [][]int32
	VertexBlocks  [][]int32
}

func newRefTree(g *graph.EdgeList, edgeComp []int32, numComp int) *refTree {
	t := &refTree{
		NumBlocks:     numComp,
		BlockCuts:     make([][]int32, numComp),
		BlockVertices: make([][]int32, numComp),
		VertexBlocks:  make([][]int32, g.N),
	}
	for i, e := range g.Edges {
		c := edgeComp[i]
		for _, v := range [2]int32{e.U, e.V} {
			if !containsInt32(t.VertexBlocks[v], c) {
				t.VertexBlocks[v] = append(t.VertexBlocks[v], c)
			}
		}
	}
	for v := int32(0); v < g.N; v++ {
		blocks := t.VertexBlocks[v]
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
			t.BlockVertices[b] = append(t.BlockVertices[b], v)
		}
		if len(blocks) > 1 {
			t.Cuts = append(t.Cuts, v)
			for _, b := range blocks {
				t.BlockCuts[b] = append(t.BlockCuts[b], v)
			}
		}
	}
	return t
}

func containsInt32(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func at(lists [][]int32, i int32) []int32 {
	if i < 0 || int(i) >= len(lists) {
		return nil
	}
	return lists[i]
}

func (t *refTree) NumNodes() int { return t.NumBlocks + len(t.Cuts) }

func (t *refTree) NumTreeEdges() int {
	n := 0
	for _, cs := range t.BlockCuts {
		n += len(cs)
	}
	return n
}

func (t *refTree) LeafBlocks() []int32 {
	var leaves []int32
	for b := 0; b < t.NumBlocks; b++ {
		if len(t.BlockCuts[b]) <= 1 {
			leaves = append(leaves, int32(b))
		}
	}
	return leaves
}

// refSubgraph is the reference block remap: the edge-scan
// Result.ComponentSubgraph ran before it shared core.Subgraph.
type refSubgraph struct {
	N         int32
	Edges     []graph.Edge
	VertexMap []int32
	EdgeMap   []int32
}

func newRefSubgraph(g *graph.EdgeList, edgeComp []int32, k int32) refSubgraph {
	var s refSubgraph
	local := map[int32]int32{}
	for i, c := range edgeComp {
		if c != k {
			continue
		}
		e := g.Edges[i]
		for _, v := range [2]int32{e.U, e.V} {
			if _, ok := local[v]; !ok {
				local[v] = int32(len(s.VertexMap))
				s.VertexMap = append(s.VertexMap, v)
			}
		}
		s.Edges = append(s.Edges, graph.Edge{U: local[e.U], V: local[e.V]})
		s.EdgeMap = append(s.EdgeMap, int32(i))
	}
	s.N = int32(len(s.VertexMap))
	return s
}

// blockCut is the accessor set core.BlockIndex and bicc.BlockCutTree share.
type blockCut interface {
	NumBlocks() int
	NumNodes() int
	NumTreeEdges() int
	CutVertices() []int32
	LeafBlocks() []int32
	BlocksOfVertex(v int32) []int32
	VerticesOfBlock(b int32) []int32
	CutsOfBlock(b int32) []int32
}

// mustJSON marshals v; answers are compared as JSON so that a nil-vs-empty
// slice difference, which would change an HTTP response, fails.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// checkAgainstReference compares every accessor of got, ids one past each
// end included, with the reference tree of the same decomposition.
func checkAgainstReference(t testing.TB, got blockCut, ref *refTree, n int32) {
	t.Helper()
	same := func(what string, a, b any) {
		t.Helper()
		if x, y := mustJSON(t, a), mustJSON(t, b); x != y {
			t.Fatalf("%s = %s, reference %s", what, x, y)
		}
	}
	same("NumBlocks", got.NumBlocks(), ref.NumBlocks)
	same("NumNodes", got.NumNodes(), ref.NumNodes())
	same("NumTreeEdges", got.NumTreeEdges(), ref.NumTreeEdges())
	same("CutVertices", got.CutVertices(), ref.Cuts)
	same("LeafBlocks", got.LeafBlocks(), ref.LeafBlocks())
	for v := int32(-1); v <= n; v++ {
		same(fmt.Sprintf("BlocksOfVertex(%d)", v), got.BlocksOfVertex(v), at(ref.VertexBlocks, v))
	}
	for b := int32(-1); b <= int32(ref.NumBlocks); b++ {
		same(fmt.Sprintf("VerticesOfBlock(%d)", b), got.VerticesOfBlock(b), at(ref.BlockVertices, b))
		same(fmt.Sprintf("CutsOfBlock(%d)", b), got.CutsOfBlock(b), at(ref.BlockCuts, b))
	}
}

// checkIndex builds the index of a decomposition and checks it, its
// block→edge lists and the remap of every block against the references.
func checkIndex(t testing.TB, g *graph.EdgeList, edgeComp []int32, numComp int) {
	t.Helper()
	x := core.NewBlockIndex(g.N, g.Edges, edgeComp, numComp)
	checkAgainstReference(t, x, newRefTree(g, edgeComp, numComp), g.N)
	for v := int32(-1); v <= g.N; v++ {
		if x.IsCut(v) != (len(x.BlocksOfVertex(v)) >= 2) {
			t.Fatalf("IsCut(%d) = %v with blocks %v", v, x.IsCut(v), x.BlocksOfVertex(v))
		}
	}
	for b := int32(-1); b <= int32(numComp); b++ {
		want := newRefSubgraph(g, edgeComp, b)
		if got, ref := mustJSON(t, x.EdgesOfBlock(b)), mustJSON(t, want.EdgeMap); got != ref {
			t.Fatalf("EdgesOfBlock(%d) = %s, reference %s", b, got, ref)
		}
		sub, vm := core.Subgraph(g.Edges, x.EdgesOfBlock(b))
		got := refSubgraph{N: sub.N, Edges: sub.Edges, VertexMap: vm, EdgeMap: x.EdgesOfBlock(b)}
		if a, r := mustJSON(t, got), mustJSON(t, want); a != r {
			t.Fatalf("block %d remap:\n index     %s\n reference %s", b, a, r)
		}
	}
}

// FuzzBlockIndex checks the index against the reference on arbitrary
// vertex counts, edge multisets (self loops and parallel edges included)
// and labelings, which need not be a valid decomposition or use every
// label. Each edge is three bytes: endpoints mod n and label mod numComp.
func FuzzBlockIndex(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(5), uint8(0), []byte{})
	f.Add(uint8(3), uint8(1), []byte{0, 1, 0, 1, 2, 0, 2, 0, 0})                // triangle
	f.Add(uint8(5), uint8(2), []byte{0, 1, 0, 1, 2, 0, 2, 0, 0, 2, 3, 1})       // triangle + bridge
	f.Add(uint8(4), uint8(4), []byte{0, 1, 3, 1, 2, 1, 2, 3, 3})                // unused labels
	f.Add(uint8(3), uint8(2), []byte{1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0})       // loop, parallels
	f.Add(uint8(6), uint8(3), []byte{0, 1, 0, 2, 3, 0, 4, 5, 2, 1, 2, 1, 3, 4}) // labels spanning components
	f.Fuzz(func(t *testing.T, nn, kk uint8, data []byte) {
		n := int32(nn % 48)
		numComp := int(kk % 16)
		g := &graph.EdgeList{N: n}
		var labels []int32
		if n > 0 && numComp > 0 {
			for i := 0; i+2 < len(data); i += 3 {
				g.Edges = append(g.Edges, graph.Edge{U: int32(data[i]) % n, V: int32(data[i+1]) % n})
				labels = append(labels, int32(data[i+2])%int32(numComp))
			}
		}
		checkIndex(t, g, labels, numComp)
	})
}

// diffFamilies are the differential's graph families: random connected
// graphs (many mixed-size blocks), the torus (biconnected, one block) and
// the caterpillar star-chain (every edge its own block, every spine vertex
// a cut).
func diffFamilies() map[string]*graph.EdgeList {
	return map[string]*graph.EdgeList{
		"random":     gen.RandomConnected(240, 700, 42),
		"torus":      gen.Torus(12, 14),
		"star-chain": gen.Caterpillar(40, 5),
	}
}

// TestDifferentialIndexEqualsReference checks, for every family and every
// engine, the index and the public BlockCutTree and ComponentSubgraph it
// serves against the references, byte for byte.
func TestDifferentialIndexEqualsReference(t *testing.T) {
	for name, el := range diffFamilies() {
		for _, algo := range bicc.Algorithms() {
			t.Run(fmt.Sprintf("%s/%s", name, algo), func(t *testing.T) {
				g, err := bicc.NewGraph(int(el.N), el.Edges)
				if err != nil {
					t.Fatal(err)
				}
				res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
				if err != nil {
					t.Fatal(err)
				}
				checkIndex(t, el, res.EdgeComponent, res.NumComponents)
				checkAgainstReference(t, res.BlockCutTree(), newRefTree(el, res.EdgeComponent, res.NumComponents), el.N)
				for b := int32(-1); b <= int32(res.NumComponents); b++ {
					sub, vm, em := res.ComponentSubgraph(b)
					got := refSubgraph{N: int32(sub.NumVertices()), Edges: sub.Edges(), VertexMap: vm, EdgeMap: em}
					if a, r := mustJSON(t, got), mustJSON(t, newRefSubgraph(el, res.EdgeComponent, b)); a != r {
						t.Fatalf("ComponentSubgraph(%d):\n got       %s\n reference %s", b, a, r)
					}
				}
			})
		}
	}
}

// noisyGraph builds a random graph with deliberate self loops and parallel
// edges, normalized away by NewGraphNormalized the way the service
// normalizes dirty uploads.
func noisyGraph(seed int64, nn, mm uint8) (*bicc.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(nn%48) + 2
	m := int(mm) % (3 * n)
	edges := make([]bicc.Edge, 0, m+2)
	for i := 0; i < m; i++ {
		edges = append(edges, bicc.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	edges = append(edges, bicc.Edge{U: 0, V: 0})
	if len(edges) > 1 {
		edges = append(edges, edges[0])
	}
	g, _, _, err := bicc.NewGraphNormalized(n, edges)
	return g, err
}

// checkInvariants asserts the block-cut invariants on the index of an
// engine's decomposition, built through BuildBlockIndex.
func checkInvariants(t *testing.T, g *bicc.Graph, res *bicc.Result) bool {
	t.Helper()
	n := int32(g.NumVertices())
	x, err := core.BuildBlockIndex(context.Background(), n, g.Edges(), res.EdgeComponent, res.NumComponents)
	if err != nil {
		t.Logf("BuildBlockIndex: %v", err)
		return false
	}

	// Every edge lies in exactly one block: the block→edge lists partition
	// [0, m), each edge under its own label.
	seen := make([]int, g.NumEdges())
	for b := int32(0); b < int32(x.NumBlocks()); b++ {
		for _, i := range x.EdgesOfBlock(b) {
			if res.EdgeComponent[i] != b {
				t.Logf("edge %d listed under block %d, labeled %d", i, b, res.EdgeComponent[i])
				return false
			}
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Logf("edge %d appears in %d blocks, want exactly 1", i, c)
			return false
		}
	}

	// A block's cut vertices are among its vertices, and membership is
	// two-sided: v is in block b iff b is among v's blocks.
	for b := int32(0); b < int32(x.NumBlocks()); b++ {
		members := map[int32]bool{}
		for _, v := range x.VerticesOfBlock(b) {
			members[v] = true
			if !containsInt32(x.BlocksOfVertex(v), b) {
				t.Logf("vertex %d in block %d but not the other way round", v, b)
				return false
			}
		}
		for _, c := range x.CutsOfBlock(b) {
			if !members[c] {
				t.Logf("block %d cut %d not among its vertices", b, c)
				return false
			}
		}
	}

	// A vertex is a cut vertex exactly when it lies in two or more blocks,
	// and the cut vertices are the engine's articulation points.
	arts := map[int32]bool{}
	for _, v := range res.ArticulationPoints() {
		arts[v] = true
	}
	for v := int32(0); v < n; v++ {
		inTwo := len(x.BlocksOfVertex(v)) >= 2
		if x.IsCut(v) != inTwo || arts[v] != inTwo {
			t.Logf("vertex %d: IsCut=%v, |blocks|>=2 is %v, articulation=%v", v, x.IsCut(v), inTwo, arts[v])
			return false
		}
	}
	if len(x.CutVertices()) != len(arts) {
		t.Logf("%d cut vertices, %d articulation points", len(x.CutVertices()), len(arts))
		return false
	}

	// Leaf blocks are exactly the blocks with at most one cut vertex.
	leaf := map[int32]bool{}
	for _, b := range x.LeafBlocks() {
		leaf[b] = true
	}
	for b := int32(0); b < int32(x.NumBlocks()); b++ {
		if leaf[b] != (len(x.CutsOfBlock(b)) <= 1) {
			t.Logf("block %d: leaf=%v but has %d cuts", b, leaf[b], len(x.CutsOfBlock(b)))
			return false
		}
	}
	return true
}

// TestQuickBlockCutInvariants drives the invariants over quick-generated
// noisy inputs under the Auto engine.
func TestQuickBlockCutInvariants(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		g, err := noisyGraph(seed, nn, mm)
		if err != nil {
			return false
		}
		res, err := bicc.BiconnectedComponents(g, &bicc.Options{Procs: 2})
		if err != nil {
			return false
		}
		return checkInvariants(t, g, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvariantsAllAlgorithms spot-checks the same invariants under
// every engine on a smaller sample.
func TestQuickInvariantsAllAlgorithms(t *testing.T) {
	for _, algo := range bicc.Algorithms() {
		f := func(seed int64, nn, mm uint8) bool {
			g, err := noisyGraph(seed, nn, mm)
			if err != nil {
				return false
			}
			res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: 2})
			if err != nil {
				return false
			}
			return checkInvariants(t, g, res)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}
