package durable

import (
	"bytes"
	"testing"

	"bicc"
	"bicc/internal/graph"
)

// fuzzSeedGraph builds a small deterministic graph for seed corpora.
func fuzzSeedGraph() *bicc.Graph {
	g, err := bicc.NewGraph(5, []bicc.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	if err != nil {
		panic(err)
	}
	return g
}

// FuzzDecodeWAL drives the WAL scanner with arbitrary bytes. The invariants
// under fuzz: never panic, never over-read, and for any input the reported
// valid prefix must itself rescan to the same records (truncation is
// idempotent — what recovery keeps, a second recovery keeps verbatim).
func FuzzDecodeWAL(f *testing.F) {
	g := fuzzSeedGraph()
	wal := fileHeader(fileKindWAL)
	for i, rec := range [][]byte{
		encodeGraph(GraphRecord{FP: "fp-1", Name: "seed one", Graph: g}),
		encodeGraph(GraphRecord{FP: "fp-2", Name: "seed two", Gen: 2, CFP: "cfp-2", Graph: g}),
	} {
		_ = i
		wal = append(wal, frameHeader(recGraphAdd, rec)...)
		wal = append(wal, rec...)
	}
	rm := []byte("fp-1")
	wal = append(wal, frameHeader(recGraphRemove, rm)...)
	wal = append(wal, rm...)
	dl := EncodeDelta(DeltaRecord{ID: "fp-2", Gen: 3, NewN: 6, PostFP: "cfp-3",
		Ops: []graph.Delta{{Del: false, U: 4, V: 5}, {Del: true, U: 2, V: 3}}})
	wal = append(wal, frameHeader(recGraphDelta, dl)...)
	wal = append(wal, dl...)
	f.Add(wal)
	f.Add(wal[:len(wal)-3]) // torn tail
	f.Add(fileHeader(fileKindWAL))
	f.Add([]byte{})
	f.Add([]byte("BCDU"))

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, validLen, _, dropped := scanWAL(b)
		if validLen < 0 || validLen > len(b) {
			t.Fatalf("validLen %d out of [0,%d]", validLen, len(b))
		}
		if dropped < 0 {
			t.Fatalf("dropped %d", dropped)
		}
		// Idempotence: rescanning the valid prefix reproduces the scan.
		recs2, validLen2, truncated2, _ := scanWAL(b[:validLen])
		if truncated2 {
			t.Fatalf("valid prefix of length %d still reported torn", validLen)
		}
		if validLen2 != validLen || len(recs2) != len(recs) {
			t.Fatalf("rescan: %d recs/%d bytes, want %d/%d", len(recs2), validLen2, len(recs), validLen)
		}
		for i := range recs {
			if recs[i].kind != recs2[i].kind || recs[i].fp != recs2[i].fp ||
				recs[i].graph.FP != recs2[i].graph.FP {
				t.Fatalf("rescan record %d differs", i)
			}
		}
	})
}

// FuzzDecodeSnapshot drives the snapshot scanner with arbitrary bytes: no
// panics, no over-reads, and a complete verdict only with a sane count.
func FuzzDecodeSnapshot(f *testing.F) {
	g := fuzzSeedGraph()
	snap := fileHeader(fileKindSnapshot)
	rec := encodeGraph(GraphRecord{FP: "fp-1", Name: "seed", Graph: g})
	snap = append(snap, frameHeader(recGraphAdd, rec)...)
	snap = append(snap, rec...)
	end := []byte{1, 0, 0, 0}
	snap = append(snap, frameHeader(recSnapEnd, end)...)
	snap = append(snap, end...)
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(fileHeader(fileKindSnapshot))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		graphs, complete, dropped := scanSnapshot(b)
		if dropped < 0 {
			t.Fatalf("dropped %d", dropped)
		}
		for _, gr := range graphs {
			if gr.Graph == nil {
				t.Fatal("nil graph in scan output")
			}
			// The decoder revalidates through bicc.AdoptGraph; spot-check the
			// invariant that validation is supposed to guarantee.
			for _, e := range gr.Graph.Edges() {
				if e.U == e.V || e.U < 0 || int(e.U) >= gr.Graph.NumVertices() {
					t.Fatalf("invalid edge %v escaped validation", e)
				}
			}
		}
		if complete && len(b) < fileHeaderLen+frameHeaderLen {
			t.Fatal("complete verdict from a file too short to hold the end marker")
		}
	})
}

// FuzzDecodeDelta drives the WAL delta-record decoder: no panics, a
// successful decode is a re-encode fixed point, and every torn-tail
// truncation of a valid payload is rejected rather than misparsed.
func FuzzDecodeDelta(f *testing.F) {
	f.Add(EncodeDelta(DeltaRecord{ID: "fp-1", Gen: 1, NewN: 8, PostFP: "cfp-1",
		Ops: []graph.Delta{{Del: false, U: 0, V: 7}, {Del: true, U: 1, V: 2}}}))
	f.Add(EncodeDelta(DeltaRecord{ID: "fp-2", Gen: 42, NewN: 3, PostFP: "",
		Ops: nil}))
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeDelta(b)
		if err != nil {
			return
		}
		// A successful decode must re-encode to exactly the input.
		if !bytes.Equal(EncodeDelta(rec), b) {
			t.Fatal("decode/encode not a fixed point")
		}
		// Structural guarantees the replay path relies on.
		for i, op := range rec.Ops {
			if op.U < 0 || op.V < 0 || op.U == op.V || op.U >= rec.NewN || op.V >= rec.NewN {
				t.Fatalf("invalid op %d escaped validation: %+v", i, op)
			}
		}
		// Torn tails of a valid payload never decode.
		for n := 0; n < len(b); n++ {
			if _, err := DecodeDelta(b[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes accepted", n, len(b))
			}
		}
	})
}
