package durable

import (
	"bytes"
	"testing"

	"bicc"
	"bicc/internal/graph"
)

func testGraph(t *testing.T, seed int64) *bicc.Graph {
	t.Helper()
	g, err := bicc.RandomConnectedGraph(40, 90, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphPayloadRoundTrip(t *testing.T) {
	g := testGraph(t, 1)
	payload := encodeGraph(GraphRecord{FP: "fp-123", Name: "demo graph", Graph: g})
	if payload[0] != 1 {
		t.Fatalf("generation-0 record encoded as version %d, want byte-compatible v1", payload[0])
	}
	rec, err := decodeGraph(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FP != "fp-123" || rec.Name != "demo graph" {
		t.Fatalf("metadata: %q %q", rec.FP, rec.Name)
	}
	if rec.Gen != 0 || rec.CFP != "fp-123" {
		t.Fatalf("v1 decode: gen=%d cfp=%q, want 0/fp-123", rec.Gen, rec.CFP)
	}
	if rec.Graph.NumVertices() != g.NumVertices() || rec.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes: %d/%d, want %d/%d",
			rec.Graph.NumVertices(), rec.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i, e := range g.Edges() {
		if rec.Graph.Edges()[i] != e {
			t.Fatalf("edge %d: %v != %v", i, rec.Graph.Edges()[i], e)
		}
	}
}

func TestGraphPayloadRejectsDamage(t *testing.T) {
	g := testGraph(t, 2)
	for _, rec := range []GraphRecord{
		{FP: "fp", Name: "n", Graph: g},
		{FP: "fp", Name: "n", Gen: 3, CFP: "cfp-other", Graph: g},
	} {
		payload := encodeGraph(rec)
		// Every single-byte truncation must fail cleanly, not panic.
		for n := 0; n < len(payload); n++ {
			if _, err := decodeGraph(payload[:n]); err == nil {
				t.Fatalf("gen=%d: decodeGraph accepted %d/%d bytes", rec.Gen, n, len(payload))
			}
		}
		// Trailing garbage is rejected too.
		if _, err := decodeGraph(append(append([]byte(nil), payload...), 0xee)); err == nil {
			t.Fatalf("gen=%d: decodeGraph accepted trailing bytes", rec.Gen)
		}
	}
}

func TestGraphPayloadV2RoundTrip(t *testing.T) {
	g := testGraph(t, 3)
	in := GraphRecord{FP: "fp-abc", Name: "mutated", Gen: 17, CFP: "cfp-def", Graph: g}
	payload := encodeGraph(in)
	if payload[0] != 2 {
		t.Fatalf("mutated record encoded as version %d, want 2", payload[0])
	}
	out, err := decodeGraph(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.FP != in.FP || out.Name != in.Name || out.Gen != in.Gen || out.CFP != in.CFP {
		t.Fatalf("metadata: %+v", out)
	}
	if out.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: %d, want %d", out.Graph.NumEdges(), g.NumEdges())
	}
}

func TestDeltaRecordRoundTrip(t *testing.T) {
	in := DeltaRecord{
		ID: "fp-xyz", Gen: 4, NewN: 12, PostFP: "cfp-123",
		Ops: []graph.Delta{
			{Del: false, U: 0, V: 9},
			{Del: true, U: 3, V: 4},
			{Del: false, U: 10, V: 11},
		},
	}
	payload := EncodeDelta(in)
	out, err := DecodeDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Gen != in.Gen || out.NewN != in.NewN || out.PostFP != in.PostFP {
		t.Fatalf("metadata: %+v", out)
	}
	if len(out.Ops) != len(in.Ops) {
		t.Fatalf("ops: %d, want %d", len(out.Ops), len(in.Ops))
	}
	for i, op := range in.Ops {
		if out.Ops[i] != op {
			t.Fatalf("op %d: %+v != %+v", i, out.Ops[i], op)
		}
	}
	// Every truncation fails cleanly.
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeDelta(payload[:n]); err == nil {
			t.Fatalf("DecodeDelta accepted %d/%d bytes", n, len(payload))
		}
	}
	// Hostile structure: self loop, out-of-range endpoint, bad op kind.
	for _, bad := range []DeltaRecord{
		{ID: "x", NewN: 5, Ops: []graph.Delta{{U: 2, V: 2}}},
		{ID: "x", NewN: 5, Ops: []graph.Delta{{U: 1, V: 5}}},
	} {
		if _, err := DecodeDelta(EncodeDelta(bad)); err == nil {
			t.Fatalf("invalid ops %+v decoded", bad.Ops)
		}
	}
	kindBad := EncodeDelta(DeltaRecord{ID: "x", NewN: 5, Ops: []graph.Delta{{U: 0, V: 1}}})
	kindBad[len(kindBad)-9] = 7 // op kind byte
	if _, err := DecodeDelta(kindBad); err == nil {
		t.Fatal("op kind 7 decoded")
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	payload := []byte("hello, durable world")
	frame := append(frameHeader(7, payload), payload...)

	kind, got, n, err := nextRecord(frame)
	if err != nil || kind != 7 || n != len(frame) || !bytes.Equal(got, payload) {
		t.Fatalf("clean frame: kind=%d n=%d err=%v", kind, n, err)
	}
	// Flip each byte in turn: every corruption must surface as an error,
	// never as a silently different payload.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, _, err := nextRecord(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	// Every truncation is reported as torn or corrupt, never accepted.
	for n := 1; n < len(frame); n++ {
		if _, _, _, err := nextRecord(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}
