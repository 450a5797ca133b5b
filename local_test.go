package bicc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bicc/internal/core"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// permutedTorus is a side×side torus whose vertex ids are permuted by seed,
// so that they carry no locality.
func permutedTorus(side int, seed int64) *graph.EdgeList {
	el := gen.Torus(side, side)
	perm := rand.New(rand.NewSource(seed)).Perm(int(el.N))
	for i, e := range el.Edges {
		el.Edges[i] = Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	return el
}

// hasView reports whether g's engines run on a local view.
func hasView(g *Graph) bool {
	l, _, _, err := g.gr.Local(nil, 1)
	return err == nil && l != g.gr
}

// TestLocalViewAnswersIdentically runs every engine at p = 1 and 2 through
// BiconnectedComponents on permuted 256² and 512² tori, which get a local
// view, and checks each answer byte for byte against the sequential engine
// run directly on the raw edge list, which never reads a view. Only the
// first solve decides: it records to-csr and relabel, and no later one
// does. The graph then holds the view instead of its own CSR, and a query
// in its own ids converts that again, once.
func TestLocalViewAnswersIdentically(t *testing.T) {
	for _, side := range []int{256, 512} {
		el := permutedTorus(side, int64(side))
		want, err := core.SequentialT(nil, nil, graph.Wrap(el))
		if err != nil {
			t.Fatal(err)
		}
		g := wrap(el)
		csrBytes := 16*int64(len(el.Edges)) + 4*(int64(el.N)+1)
		if b := g.gr.Bytes(); b != 8*int64(len(el.Edges))+64+csrBytes {
			t.Fatalf("torus %d² before its first solve: charged %d bytes, want the edge list and its CSR", side, b)
		}
		first := true
		for _, a := range Algorithms() {
			for _, p := range []int{1, 2} {
				at := fmt.Sprintf("torus %d², %v p=%d", side, a, p)
				res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: p})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if res.NumComponents != want.NumComp || !slices.Equal(res.EdgeComponent, want.EdgeComp) {
					t.Fatalf("%s: labels differ from the sequential engine on the raw edges", at)
				}
				if first {
					if len(res.Phases) < 2 || res.Phases[0].Name != core.PhaseToCSR || res.Phases[1].Name != core.PhaseRelabel {
						t.Fatalf("%s: first solve's phases %v, want to-csr then relabel", at, res.Phases)
					}
				} else if hasPhase(res, core.PhaseToCSR) || hasPhase(res, core.PhaseRelabel) {
					t.Fatalf("%s: a later solve decided again: %v", at, res.Phases)
				}
				first = false
			}
		}
		if !hasView(g) {
			t.Fatalf("torus %d²: no local view", side)
		}
		// The view: a relabeled edge list and its CSR; no CSR of g's own.
		if b := g.gr.Bytes(); b != 16*int64(len(el.Edges))+128+csrBytes {
			t.Fatalf("torus %d² with a view: charged %d bytes, want two edge lists and one CSR", side, b)
		}
		before := csrConversions()
		if st := Analyze(g, 2); !st.Connected {
			t.Fatalf("torus %d²: Analyze says a torus is not connected", side)
		}
		if _, _, err := SparseCertificate(g, &Options{Procs: 2}); err != nil {
			t.Fatal(err)
		}
		if n := csrConversions() - before; n != 1 {
			t.Fatalf("torus %d²: queries in the graph's own ids converted %d times, want 1", side, n)
		}
	}

	rg, err := RandomConnectedGraph(100000, 1000000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BiconnectedComponents(rg, &Options{Algorithm: FastBCC, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hasView(rg) {
		t.Fatal("G(100000, 1000000) got a local view")
	}
	if len(res.Phases) < 2 || res.Phases[0].Name != core.PhaseToCSR || res.Phases[1].Name != core.PhaseRelabel {
		t.Fatalf("G(100000, 1000000): first solve's phases %v, want to-csr then relabel", res.Phases)
	}
}
