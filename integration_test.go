package bicc

import (
	"fmt"
	"testing"

	"bicc/internal/conncomp"
)

// TestIntegrationFamilies runs every algorithm over every instance family
// the repository can generate, cross-checks the partitions against the
// sequential baseline, and certifies one result per family with the
// independent verifier. This is the whole-pipeline smoke grid.
func TestIntegrationFamilies(t *testing.T) {
	mk := func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	families := map[string]*Graph{
		"random-sparse":  mk(RandomGraph(400, 800, 1)),
		"random-dense":   mk(RandomGraph(120, 4000, 2)),
		"random-conn":    mk(RandomConnectedGraph(500, 2000, 3)),
		"mesh":           mk(MeshGraph(15, 20)),
		"torus":          mk(TorusGraph(10, 12)),
		"chain":          mk(ChainGraph(600)),
		"dense-woosahni": mk(DenseGraph(60, 0.7, 4)),
		"pref-attach":    mk(PreferentialAttachmentGraph(400, 3, 5)),
		"geometric":      mk(GeometricGraph(300, 0.1, 6)),
	}
	algos := append(parallelAlgorithms(), Auto)
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, want); err != nil {
				t.Fatalf("sequential fails verification: %v", err)
			}
			for _, a := range algos {
				for _, p := range []int{1, 3} {
					res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: p})
					if err != nil {
						t.Fatalf("%v p=%d: %v", a, p, err)
					}
					if res.NumComponents != want.NumComponents {
						t.Errorf("%v p=%d: %d components, want %d", a, p, res.NumComponents, want.NumComponents)
						continue
					}
					if g.NumEdges() > 0 && !conncomp.SamePartition(res.EdgeComponent, want.EdgeComponent) {
						t.Errorf("%v p=%d: partition differs", a, p)
					}
				}
			}
			// Derived views agree across algorithms by construction of the
			// partition check; sanity-check the counts once.
			cnt, err := CountBlocks(g, &Options{Procs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if cnt != want.NumComponents {
				t.Errorf("CountBlocks=%d, want %d", cnt, want.NumComponents)
			}
		})
	}
}

// TestIntegrationLargeSingle exercises one paper-sized-but-scaled instance
// end to end with verification of derived structures.
func TestIntegrationLargeSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := RandomConnectedGraph(20_000, 80_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range parallelAlgorithms() {
		res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != want.NumComponents {
			t.Fatalf("%v: %d components, want %d", a, res.NumComponents, want.NumComponents)
		}
		if len(res.ArticulationPoints()) != len(want.ArticulationPoints()) {
			t.Fatalf("%v: articulation point count differs", a)
		}
		if len(res.Bridges()) != len(want.Bridges()) {
			t.Fatalf("%v: bridge count differs", a)
		}
		bct := res.BlockCutTree()
		if bct.NumBlocks() != res.NumComponents {
			t.Fatalf("%v: block-cut tree has %d blocks, want %d", a, bct.NumBlocks(), res.NumComponents)
		}
	}
}

// TestIntegrationDerivedConsistency checks the internal consistency of a
// Result's derived views on assorted graphs.
func TestIntegrationDerivedConsistency(t *testing.T) {
	for i := 0; i < 10; i++ {
		g, err := RandomGraph(100, 50*i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := BiconnectedComponents(g, &Options{Algorithm: TVFilter, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		comps := res.Components()
		if len(comps) != res.NumComponents {
			t.Fatalf("Components() returned %d groups, want %d", len(comps), res.NumComponents)
		}
		total := 0
		for k, edges := range comps {
			if len(edges) == 0 {
				t.Fatalf("block %d is empty", k)
			}
			total += len(edges)
			for _, e := range edges {
				if res.EdgeComponent[e] != int32(k) {
					t.Fatalf("edge %d grouped under %d but labeled %d", e, k, res.EdgeComponent[e])
				}
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("groups cover %d edges, want %d", total, g.NumEdges())
		}
		// Bridges are exactly the singleton groups.
		bridgeCount := 0
		for _, edges := range comps {
			if len(edges) == 1 {
				bridgeCount++
			}
		}
		if got := len(res.Bridges()); got != bridgeCount {
			t.Fatalf("Bridges()=%d, singleton groups=%d", got, bridgeCount)
		}
		_ = fmt.Sprintf("%v", res.Algorithm) // String coverage
	}
}
