package graph

import (
	"math/rand"
	"testing"
)

func chainEL(n int) *EdgeList {
	g := &EdgeList{N: int32(n)}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	return g
}

func TestDegrees(t *testing.T) {
	g := &EdgeList{N: 5, Edges: []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}}
	deg, st := Degrees(1, g)
	if deg[0] != 3 || deg[4] != 0 {
		t.Errorf("deg=%v", deg)
	}
	if st.Min != 0 || st.Max != 3 || st.Isolated != 1 {
		t.Errorf("stats=%+v", st)
	}
	if st.Mean != 6.0/5.0 {
		t.Errorf("mean=%f", st.Mean)
	}
	_, st0 := Degrees(1, &EdgeList{N: 0})
	if st0.Min != 0 || st0.Max != 0 {
		t.Errorf("empty stats=%+v", st0)
	}
}

func TestDiameterChain(t *testing.T) {
	for _, p := range []int{1, 4} {
		if d := Diameter(p, ToCSR(p, chainEL(10))); d != 9 {
			t.Errorf("p=%d: chain diameter=%d, want 9", p, d)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	// Two chains of length 3 and 5: diameter = max per component = 4.
	g := &EdgeList{N: 10}
	for i := 0; i < 3; i++ {
		g.Edges = append(g.Edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 4; i < 9; i++ {
		g.Edges = append(g.Edges, Edge{U: int32(i), V: int32(i + 1)})
	}
	if d := Diameter(2, ToCSR(2, g)); d != 5 {
		t.Errorf("diameter=%d, want 5", d)
	}
}

func TestDiameterEdgeless(t *testing.T) {
	if d := Diameter(2, ToCSR(2, &EdgeList{N: 7})); d != 0 {
		t.Errorf("edgeless diameter=%d", d)
	}
	if d := Diameter(2, ToCSR(2, &EdgeList{N: 0})); d != 0 {
		t.Errorf("empty diameter=%d", d)
	}
}

func TestTwoSweepLowerBoundAndTreeExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 40, 70)
		exact := Diameter(1, ToCSR(1, g))
		est := DiameterTwoSweep(ToCSR(1, g), 0)
		if est > exact {
			t.Fatalf("two-sweep %d exceeds exact %d", est, exact)
		}
	}
	// Exact on trees (here: a chain).
	g := chainEL(50)
	if est := DiameterTwoSweep(ToCSR(1, g), 25); est != 49 {
		t.Errorf("two-sweep on chain=%d, want 49", est)
	}
}

// Palmer [15]: almost all random graphs have diameter two. Checked at a
// density where the property already holds with high probability.
func TestPalmerDiameterTwo(t *testing.T) {
	n := 200
	m := n * n / 8 // p = 1/4: diameter 2 whp at this size
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, n, m)
	if d := Diameter(4, ToCSR(4, g)); d != 2 {
		t.Errorf("dense random graph diameter=%d, want 2 (Palmer)", d)
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(ToCSR(1, chainEL(10))) {
		t.Error("chain reported disconnected")
	}
	if IsConnected(ToCSR(1, &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 1}}})) {
		t.Error("graph with isolated vertex reported connected")
	}
	if !IsConnected(ToCSR(1, &EdgeList{N: 1})) {
		t.Error("singleton reported disconnected")
	}
	if !IsConnected(ToCSR(1, &EdgeList{N: 0})) {
		t.Error("empty reported disconnected")
	}
}
