// This test lives in package core_test (not core) so it can pull in the
// engine table, which itself imports core.
package core_test

import (
	"fmt"
	"testing"

	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// TestCanonicalLabels pins the property the incremental layer builds on: all
// engines emit the same EdgeComp byte for byte, because every engine
// densifies block ids into first-occurrence order over the edge list. A
// partial recomputation stitched into that numbering is then
// indistinguishable from a from-scratch run of any engine.
func TestCanonicalLabels(t *testing.T) {
	families := map[string]*graph.EdgeList{
		"random":      gen.RandomConnected(200, 600, 7),
		"torus":       gen.Torus(10, 12),
		"caterpillar": gen.Caterpillar(30, 4),
		"dense":       gen.Dense(40, 0.5, 11),
		"mesh":        gen.Mesh(9, 9),
	}
	seq, _ := engine.Lookup(engine.Sequential)
	for fname, el := range families {
		// One graph for every engine: the sequential run converts the CSR
		// and the others read it.
		g := graph.Wrap(el)
		want, err := seq.Run(nil, nil, 1, g)
		if err != nil {
			t.Fatalf("%s/sequential: %v", fname, err)
		}
		// The canonical numbering is first-occurrence order: walking the
		// edge list, each label must be either already seen or exactly the
		// next unused id.
		next := int32(0)
		for i, c := range want.EdgeComp {
			if c > next {
				t.Fatalf("%s: edge %d has label %d before %d was used", fname, i, c, next)
			}
			if c == next {
				next++
			}
		}
		for _, e := range engine.All {
			got, err := e.Run(nil, nil, 3, g)
			if err != nil {
				t.Fatalf("%s/%s: %v", fname, e.Name, err)
			}
			if got.NumComp != want.NumComp {
				t.Fatalf("%s/%s: NumComp=%d, sequential %d", fname, e.Name, got.NumComp, want.NumComp)
			}
			if fmt.Sprint(got.EdgeComp) != fmt.Sprint(want.EdgeComp) {
				t.Fatalf("%s/%s: EdgeComp differs from sequential", fname, e.Name)
			}
		}
	}
}
