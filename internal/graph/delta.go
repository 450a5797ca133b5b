package graph

import (
	"fmt"
	"math"
	"slices"
)

// Delta is one edge mutation of a batch: the insert of the undirected edge
// {U, V}, or its delete when Del is set.
type Delta struct {
	Del  bool
	U, V int32
}

// DeltaError reports the first delta of a batch that ApplyDeltas rejects —
// a client error, found before anything is written.
type DeltaError struct {
	Index  int
	Delta  Delta
	Reason string
}

func (e *DeltaError) Error() string {
	op := "insert"
	if e.Delta.Del {
		op = "delete"
	}
	return fmt.Sprintf("graph: delta %d (%s %d,%d): %s", e.Index, op, e.Delta.U, e.Delta.V, e.Reason)
}

// ApplyDeltas returns the graph that a batch of deltas leaves of n vertices
// and edges, applying the deltas in order: an insert appends its edge, a
// delete removes its edge and keeps the order of the rest, delete then
// re-insert of one edge is legal and moves it to the end, and an endpoint
// past the vertex count grows the graph. It rejects with a *DeltaError a
// negative endpoint, an endpoint of 2^31 − 1 (no int32 vertex count
// reaches past it), a self loop, an insert of a present edge, a second
// insert of one edge, a delete of an absent edge and the delete of an edge
// the batch inserted.
//
// out is new: the survivors in their order, then the inserts in batch
// order. deleted lists the positions in edges of the deleted edges,
// ascending. ApplyDeltas never writes to edges, sizes nothing by the vertex
// count and keeps nothing between calls: one pass over edges finds the
// batch's keys, and the survivors are copied as runs between the deleted
// positions.
func ApplyDeltas(n int32, edges []Edge, deltas []Delta) (newN int32, out []Edge, deleted []int, err error) {
	// One state per distinct key of the batch: its position in edges (-1
	// while absent) and what the batch has done to it so far.
	type keyState struct {
		pos            int
		added, removed bool
	}
	keys := make(map[uint64]int, len(deltas)) // key -> index into states
	states := make([]keyState, 0, len(deltas))
	// One bit per batch key hash keeps the map probe off most edges.
	var filter [1 << 10]uint64
	for _, d := range deltas {
		k := CanonKey(d.U, d.V)
		if _, ok := keys[k]; !ok {
			keys[k] = len(states)
			states = append(states, keyState{pos: -1})
			h := keyHash(k)
			filter[h>>6] |= 1 << (h & 63)
		}
	}
	for i, e := range edges {
		k := CanonKey(e.U, e.V)
		if h := keyHash(k); filter[h>>6]&(1<<(h&63)) == 0 {
			continue
		}
		if j, ok := keys[k]; ok {
			states[j].pos = i
		}
	}

	newN = n
	inserts := 0
	for i, d := range deltas {
		st := &states[keys[CanonKey(d.U, d.V)]]
		var reason string
		switch {
		case d.U < 0 || d.V < 0:
			reason = "negative vertex"
		case d.U == math.MaxInt32 || d.V == math.MaxInt32:
			reason = "vertex id out of range"
		case d.U == d.V:
			reason = "self loop"
		case d.Del && st.added:
			reason = "edge was inserted earlier in this batch"
		case d.Del && st.pos < 0:
			reason = "edge not present"
		case d.Del && st.removed:
			reason = "edge already deleted in this batch"
		case d.Del:
			st.removed = true
			deleted = append(deleted, st.pos)
		case st.added:
			reason = "duplicate of an insert earlier in this batch"
		case st.pos >= 0 && !st.removed:
			reason = "edge already present"
		default:
			st.added = true
			inserts++
			newN = max(newN, d.U+1, d.V+1)
		}
		if reason != "" {
			return 0, nil, nil, &DeltaError{i, d, reason}
		}
	}

	slices.Sort(deleted)
	out = make([]Edge, 0, len(edges)-len(deleted)+inserts)
	from := 0
	for _, i := range deleted {
		out = append(out, edges[from:i]...)
		from = i + 1
	}
	out = append(out, edges[from:]...)
	for _, d := range deltas {
		if !d.Del {
			out = append(out, Edge{U: d.U, V: d.V})
		}
	}
	return newN, out, deleted, nil
}

// keyHash maps an edge key to one of the 2^16 bits of ApplyDeltas' filter.
func keyHash(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 48 }
