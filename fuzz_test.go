package bicc

import (
	"slices"
	"testing"

	"bicc/internal/engine"
	"bicc/internal/graph"
)

// sameOnView runs every engine on a local view of g built directly, since
// fuzz inputs sit below the size floor, and holds each to want's labels
// byte for byte: the view keeps g's edge order, so nothing maps back.
func sameOnView(t *testing.T, g *Graph, want *Result) {
	t.Helper()
	el := g.gr.EdgeList
	_, view := graph.Relabel(nil, 2, graph.ToCSR(2, el), el)
	for _, e := range engine.All {
		got, err := e.Run(nil, nil, 2, view)
		if err != nil {
			t.Fatalf("%s on the view: %v", e.Name, err)
		}
		if got.NumComp != want.NumComponents || !slices.Equal(got.EdgeComp, want.EdgeComponent) {
			t.Fatalf("%s on the view: labels differ from sequential on the original", e.Name)
		}
	}
}

// FuzzBiconnectedComponents decodes raw bytes into a graph (2 bytes per
// edge over up to 64 vertices) and holds every parallel engine, and every
// engine on a local view of the graph, to byte-identical EdgeComponent
// labels against the sequential oracle, which the independent verifier
// checks first. Run with `go test -fuzz
// FuzzBiconnected` for an open-ended hunt; the seed corpus below runs in
// normal test mode.
func FuzzBiconnectedComponents(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x21, 0x02})             // triangle-ish
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x50}) // cycle
	f.Add([]byte{0x01, 0x01, 0x11})                   // dup + self loop
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const n = 64
		var edges []Edge
		for i := 0; i+1 < len(data); i += 2 {
			u := int32(data[i] % n)
			v := int32(data[i+1] % n)
			edges = append(edges, Edge{U: u, V: v})
		}
		g, _, _, err := NewGraphNormalized(n, edges)
		if err != nil {
			t.Fatalf("normalization rejected in-range input: %v", err)
		}
		want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, want); err != nil {
			t.Fatalf("sequential result fails verification: %v", err)
		}
		for _, a := range parallelAlgorithms() {
			got, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 2})
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if got.NumComponents != want.NumComponents {
				t.Fatalf("%v: NumComponents=%d, want %d", a, got.NumComponents, want.NumComponents)
			}
			for i := range want.EdgeComponent {
				if got.EdgeComponent[i] != want.EdgeComponent[i] {
					t.Fatalf("%v: edge %d labeled %d, sequential %d",
						a, i, got.EdgeComponent[i], want.EdgeComponent[i])
				}
			}
		}
		sameOnView(t, g, want)
	})
}

// FuzzFastBCC holds the skeleton engine to the same bar as the shared
// fuzzer above, byte-identical EdgeComponent against the sequential oracle
// (the canonical-labeling contract the incremental layer depends on), at
// p=3 and on its own input mix, and every engine on a local view of it. Vertices are drawn from a 32-id space so
// random inputs are frequently disconnected; the seed corpus adds the
// regimes where skeleton/fence classification is most delicate (trees where
// every edge is a bridge, bridges joining dense blocks, isolated vertices).
func FuzzFastBCC(f *testing.F) {
	f.Add([]byte{})                                         // empty graph
	f.Add([]byte{0x01, 0x12, 0x23, 0x34})                   // path: every edge a bridge
	f.Add([]byte{0x01, 0x12, 0x20, 0x23, 0x34, 0x45, 0x53}) // two triangles joined by a bridge
	f.Add([]byte{0x01, 0x10, 0x45, 0x56, 0x64})             // disconnected: edge + triangle
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05})             // star: bridge-only
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const n = 32
		var edges []Edge
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{U: int32(data[i] % n), V: int32(data[i+1] % n)})
		}
		g, _, _, err := NewGraphNormalized(n, edges)
		if err != nil {
			t.Fatalf("normalization rejected in-range input: %v", err)
		}
		want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
		if err != nil {
			t.Fatal(err)
		}
		got, err := BiconnectedComponents(g, &Options{Algorithm: FastBCC, Procs: 3})
		if err != nil {
			t.Fatalf("fast-bcc: %v", err)
		}
		if got.NumComponents != want.NumComponents {
			t.Fatalf("fast-bcc: NumComponents=%d, want %d", got.NumComponents, want.NumComponents)
		}
		for i := range want.EdgeComponent {
			if got.EdgeComponent[i] != want.EdgeComponent[i] {
				t.Fatalf("fast-bcc: edge %d labeled %d, sequential %d",
					i, got.EdgeComponent[i], want.EdgeComponent[i])
			}
		}
		sameOnView(t, g, want)
	})
}
