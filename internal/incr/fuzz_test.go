package incr

import (
	"context"
	"errors"
	"testing"

	"bicc"
	"bicc/internal/graph"
)

// FuzzApplyDeltas drives arbitrary delta sequences — valid or hostile —
// through a maintained State and checks the two invariants the service
// depends on: a rejected batch leaves the state byte-identical (atomicity),
// and an accepted batch leaves labels byte-identical to a from-scratch
// engine run on the state's own edge list (correctness). Input bytes decode
// as (op, u, v) triples, so the fuzzer explores duplicate inserts, absent
// deletes, self loops, vertex growth, and delete-then-reinsert interleavings
// without any guidance.
func FuzzApplyDeltas(f *testing.F) {
	f.Add([]byte{0, 0, 4})                            // cross-block insert
	f.Add([]byte{1, 0, 1, 0, 0, 1})                   // delete then re-insert
	f.Add([]byte{0, 0, 2, 0, 2, 0})                   // insert + duplicate (reject)
	f.Add([]byte{0, 0, 9, 0, 9, 10})                  // chain through new vertices
	f.Add([]byte{1, 3, 4, 1, 4, 5, 0, 3, 5, 0, 1, 7}) // deletes + inserts mixed
	f.Add([]byte{0, 5, 5})                            // self loop (reject)
	f.Add([]byte{1, 0, 5})                            // absent delete (reject)
	f.Add([]byte{0, 1, 3, 1, 1, 3})                   // insert then delete it (reject)

	base := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 2, V: 3},                                           // bridge
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 3}, // square
	}
	run := func(ctx context.Context, g *bicc.Graph) (*bicc.Result, error) {
		return bicc.BiconnectedComponentsCtx(ctx, g, &bicc.Options{Algorithm: bicc.Sequential})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := bicc.NewGraph(7, base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewState(g, res)
		if err != nil {
			t.Fatal(err)
		}
		// Split the input into batches of up to 4 deltas so one hostile
		// delta can't shadow valid work later in the input.
		for off := 0; off+3 <= len(data) && off < 60; {
			var deltas []graph.Delta
			for k := 0; k < 4 && off+3 <= len(data); k++ {
				// Map endpoints into a window slightly past the current
				// vertex count so growth and out-of-range mix naturally.
				span := st.N() + 3
				deltas = append(deltas, graph.Delta{
					Del: data[off]&1 == 1,
					U:   int32(int(data[off+1]) % span),
					V:   int32(int(data[off+2]) % span),
				})
				off += 3
			}
			before := st.Labels()
			edgesBefore := append([]graph.Edge(nil), st.Edges()...)
			stats, aerr := apply(st, deltas, Config{}, run)
			if aerr != nil {
				var de *graph.DeltaError
				if !errors.As(aerr, &de) {
					t.Fatalf("non-client error from validation-only input: %v", aerr)
				}
				// Atomicity: a rejected batch leaves no trace.
				if st.NumEdges() != len(edgesBefore) {
					t.Fatalf("rejected batch changed edge count: %d, had %d",
						st.NumEdges(), len(edgesBefore))
				}
				for i, c := range st.Labels() {
					if c != before[i] {
						t.Fatalf("rejected batch relabeled edge %d", i)
					}
				}
				continue
			}
			if stats.Deltas != len(deltas) {
				t.Fatalf("stats count %d deltas, batch had %d", stats.Deltas, len(deltas))
			}
			// Correctness: maintained labels == scratch labels on the same
			// edge list.
			sg, err := bicc.NewGraph(st.N(), st.Edges())
			if err != nil {
				t.Fatalf("committed state has invalid graph: %v", err)
			}
			want, err := run(context.Background(), sg)
			if err != nil {
				t.Fatal(err)
			}
			if st.NumComponents() != want.NumComponents {
				t.Fatalf("components %d, scratch %d", st.NumComponents(), want.NumComponents)
			}
			labels := st.Labels()
			for i, c := range want.EdgeComponent {
				if labels[i] != c {
					t.Fatalf("edge %d labeled %d, scratch %d", i, labels[i], c)
				}
			}
		}
	})
}
