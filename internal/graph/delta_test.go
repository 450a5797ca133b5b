package graph

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// refApplyDeltas is the naive reference for ApplyDeltas: it applies the
// deltas one at a time to a copy of the edge list, finding each edge by
// linear search and removing it by shifting the rest down.
func refApplyDeltas(n int32, edges []Edge, deltas []Delta) (int32, []Edge, []int, error) {
	type live struct {
		e   Edge
		pos int // position in edges, -1 for an edge the batch inserted
	}
	cur := make([]live, len(edges))
	for i, e := range edges {
		cur[i] = live{e, i}
	}
	same := func(a Edge, u, v int32) bool { return a.U == u && a.V == v || a.U == v && a.V == u }
	find := func(u, v int32) int {
		for i, l := range cur {
			if same(l.e, u, v) {
				return i
			}
		}
		return -1
	}
	var deleted []int
	var inserted []Edge
	insertedEarlier := func(u, v int32) bool {
		for _, e := range inserted {
			if same(e, u, v) {
				return true
			}
		}
		return false
	}
	wasPresent := func(u, v int32) bool {
		for _, e := range edges {
			if same(e, u, v) {
				return true
			}
		}
		return false
	}
	for i, d := range deltas {
		fail := func(reason string) (int32, []Edge, []int, error) {
			return 0, nil, nil, &DeltaError{i, d, reason}
		}
		switch {
		case d.U < 0 || d.V < 0:
			return fail("negative vertex")
		case d.U == math.MaxInt32 || d.V == math.MaxInt32:
			return fail("vertex id out of range")
		case d.U == d.V:
			return fail("self loop")
		}
		at := find(d.U, d.V)
		if d.Del {
			switch {
			case insertedEarlier(d.U, d.V):
				return fail("edge was inserted earlier in this batch")
			case at >= 0:
				deleted = append(deleted, cur[at].pos)
				cur = append(cur[:at], cur[at+1:]...)
			case wasPresent(d.U, d.V):
				return fail("edge already deleted in this batch")
			default:
				return fail("edge not present")
			}
			continue
		}
		switch {
		case insertedEarlier(d.U, d.V):
			return fail("duplicate of an insert earlier in this batch")
		case at >= 0:
			return fail("edge already present")
		}
		e := Edge{U: d.U, V: d.V}
		inserted = append(inserted, e)
		cur = append(cur, live{e, -1})
		n = max(n, d.U+1, d.V+1)
	}
	out := make([]Edge, len(cur))
	for i, l := range cur {
		out[i] = l.e
	}
	slices.Sort(deleted)
	return n, out, deleted, nil
}

// checkApplyDeltas holds ApplyDeltas to the reference on one batch and
// returns the reference's result.
func checkApplyDeltas(t *testing.T, n int32, edges []Edge, deltas []Delta) (int32, []Edge, error) {
	t.Helper()
	before := slices.Clone(edges)
	gotN, got, gotDel, gotErr := ApplyDeltas(n, edges, deltas)
	wantN, want, wantDel, wantErr := refApplyDeltas(n, edges, deltas)
	if !slices.Equal(edges, before) {
		t.Fatalf("ApplyDeltas wrote to its input edge list")
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("deltas %v: error %v, reference %v", deltas, gotErr, wantErr)
	}
	if wantErr != nil {
		var g, w *DeltaError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || *g != *w {
			t.Fatalf("deltas %v: rejected as %v, reference %v", deltas, gotErr, wantErr)
		}
		return n, edges, wantErr
	}
	if gotN != wantN || !slices.Equal(got, want) || !slices.Equal(gotDel, wantDel) {
		t.Fatalf("deltas %v on %v:\n n=%d edges %v deleted %v\nreference n=%d edges %v deleted %v",
			deltas, edges, gotN, got, gotDel, wantN, want, wantDel)
	}
	checkSimple(t, gotN, got)
	return wantN, want, nil
}

// checkSimple fails unless edges form a simple graph on [0, n): no self
// loop, no endpoint outside the range, no key twice. A mutation batch's
// output is wrapped as a graph with no further check, so ApplyDeltas'
// rules must guarantee this. It keeps a map over the edges, never an array
// over n, which the fuzzer grows to 2^31 − 1.
func checkSimple(t *testing.T, n int32, edges []Edge) {
	t.Helper()
	seen := make(map[uint64]int, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			t.Fatalf("output edge %d (%d,%d) is a self loop or outside [0,%d)", i, e.U, e.V, n)
		}
		if j, ok := seen[CanonKey(e.U, e.V)]; ok {
			t.Fatalf("output edges %d and %d are both (%d,%d)", j, i, e.U, e.V)
		}
		seen[CanonKey(e.U, e.V)] = i
	}
}

// deltaBase is the fuzzer's starting graph: a triangle, a bridge and a
// square.
var deltaBase = []Edge{
	{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
	{U: 2, V: 3},
	{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 3},
}

// FuzzApplyDeltas holds ApplyDeltas to the naive reference on arbitrary
// batches: the edge list, the vertex count and the deleted positions of an
// accepted batch, and the delta index and reason of a rejected one, must
// equal the reference's, and an accepted batch's output must be a simple
// graph on its vertex count (checkSimple). Input bytes decode as (op, u, v) triples, in
// batches of up to 8 applied in turn to the result of the last accepted
// one: op bit 0 deletes, bit 1 negates u, bit 2 counts v down from
// 2^31 − 1, and endpoints fall in a window slightly past the vertex count,
// so duplicate inserts, absent deletes, self loops, vertex growth and
// delete-then-reinsert all occur.
func FuzzApplyDeltas(f *testing.F) {
	f.Add([]byte{0, 0, 4})                            // cross-block insert
	f.Add([]byte{1, 0, 1, 0, 0, 1})                   // delete then re-insert
	f.Add([]byte{0, 0, 2, 0, 2, 0})                   // insert + duplicate (reject)
	f.Add([]byte{0, 0, 9, 0, 9, 10})                  // chain through new vertices
	f.Add([]byte{1, 3, 4, 1, 4, 5, 0, 3, 5, 0, 1, 7}) // deletes + inserts mixed
	f.Add([]byte{0, 5, 5})                            // self loop (reject)
	f.Add([]byte{1, 0, 5})                            // absent delete (reject)
	f.Add([]byte{0, 1, 3, 1, 1, 3})                   // insert then delete it (reject)
	f.Add([]byte{1, 6, 3, 0, 0, 8, 0, 3, 6, 1, 8, 0}) // delete, re-insert, insert then delete it (reject)
	f.Add([]byte{2, 1, 4})                            // negative vertex (reject)
	f.Add([]byte{4, 1, 0})                            // vertex id 2^31 − 1 (reject)
	f.Add([]byte{4, 1, 1, 0, 1, 2})                   // grow to 2^31 − 1 vertices
	f.Add([]byte{1, 2, 3, 1, 3, 2})                   // second delete of one edge (reject)

	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := int32(7), deltaBase
		for off := 0; off+3 <= len(data) && off < 240; {
			var deltas []Delta
			for k := 0; k < 8 && off+3 <= len(data); k++ {
				span := int(n) + 3
				d := Delta{
					Del: data[off]&1 == 1,
					U:   int32(int(data[off+1]) % span),
					V:   int32(int(data[off+2]) % span),
				}
				if data[off]&2 != 0 {
					d.U = -d.U - 1
				}
				if data[off]&4 != 0 {
					d.V = math.MaxInt32 - d.V
				}
				deltas = append(deltas, d)
				off += 3
			}
			n, edges, _ = checkApplyDeltas(t, n, edges, deltas)
		}
	})
}

// TestApplyDeltasDeletesAtFrontOfLargeList applies one batch that deletes
// the first 2000 edges of a 20000-edge path, interleaved with inserts and
// ending with a re-insert of a deleted edge: the result is the survivors
// in order, then the inserts in batch order. The same batch with a delete
// of an edge it inserted earlier is rejected, and the errors name the
// delta and the reason.
func TestApplyDeltasDeletesAtFrontOfLargeList(t *testing.T) {
	const m, k = 20000, 2000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	var deltas []Delta
	var inserted []Edge
	for i := int32(0); i < k; i++ {
		deltas = append(deltas, Delta{Del: true, U: i + 1, V: i})
		if i%100 == 0 {
			deltas = append(deltas, Delta{U: i + k, V: i + k + 2})
			inserted = append(inserted, Edge{U: i + k, V: i + k + 2})
		}
	}
	deltas = append(deltas, Delta{U: 1, V: 0})
	want := append(append(slices.Clone(edges[k:]), inserted...), Edge{U: 1, V: 0})

	n, got, deleted, err := ApplyDeltas(m+1, edges, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if n != m+1 || !slices.Equal(got, want) {
		t.Fatalf("n=%d, %d edges; want n=%d, %d edges in order", n, len(got), m+1, len(want))
	}
	if len(deleted) != k || deleted[0] != 0 || deleted[k-1] != k-1 {
		t.Fatalf("deleted positions %v..., want 0..%d", deleted[:3], k-1)
	}
	checkApplyDeltas(t, m+1, edges, deltas)

	for _, tc := range []struct {
		deltas []Delta
		err    string
	}{
		{append(slices.Clone(deltas), Delta{Del: true, U: inserted[3].V, V: inserted[3].U}),
			"graph: delta 2021 (delete 2302,2300): edge was inserted earlier in this batch"},
		{[]Delta{{Del: true, U: 0, V: 1}, {Del: true, U: 1, V: 0}},
			"graph: delta 1 (delete 1,0): edge already deleted in this batch"},
		{[]Delta{{U: 5, V: 4}}, "graph: delta 0 (insert 5,4): edge already present"},
		{[]Delta{{U: 0, V: 5}, {U: 0, V: math.MaxInt32}},
			"graph: delta 1 (insert 0,2147483647): vertex id out of range"},
	} {
		if _, _, _, err := ApplyDeltas(m+1, edges, tc.deltas); err == nil || err.Error() != tc.err {
			t.Fatalf("got %v, want %s", err, tc.err)
		}
	}
}
