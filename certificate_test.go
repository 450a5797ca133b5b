package bicc

import (
	"testing"
	"testing/quick"
)

func TestSparseCertificateSize(t *testing.T) {
	g, err := DenseGraph(80, 0.8, 1) // ~2500 edges over 80 vertices
	if err != nil {
		t.Fatal(err)
	}
	cert, edgeMap, err := SparseCertificate(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cert.NumVertices() != g.NumVertices() {
		t.Errorf("vertex count changed: %d", cert.NumVertices())
	}
	if max := 2 * (g.NumVertices() - 1); cert.NumEdges() > max {
		t.Errorf("certificate has %d edges, bound is %d", cert.NumEdges(), max)
	}
	if len(edgeMap) != cert.NumEdges() {
		t.Errorf("edgeMap len=%d, edges=%d", len(edgeMap), cert.NumEdges())
	}
	for j, e := range cert.Edges() {
		orig := g.Edges()[edgeMap[j]]
		if e != orig {
			t.Errorf("edge %d: %v mapped to %v", j, e, orig)
		}
	}
}

func TestSparseCertificatePreservesStructure(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%50) + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g, err := RandomGraph(n, m, seed)
		if err != nil {
			return false
		}
		cert, _, err := SparseCertificate(g, &Options{Procs: 2})
		if err != nil {
			return false
		}
		full, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
		if err != nil {
			return false
		}
		sub, err := BiconnectedComponents(cert, &Options{Algorithm: Sequential})
		if err != nil {
			return false
		}
		// Same number of blocks, same articulation points.
		if full.NumComponents != sub.NumComponents {
			return false
		}
		fa, sa := full.ArticulationPoints(), sub.ArticulationPoints()
		if len(fa) != len(sa) {
			return false
		}
		for i := range fa {
			if fa[i] != sa[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSparseCertificateSparseIdentity(t *testing.T) {
	// A graph that already has < 2(n-1) essential edges survives unchanged.
	g, err := ChainGraph(30)
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := SparseCertificate(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cert.NumEdges() != g.NumEdges() {
		t.Errorf("chain certificate has %d edges, want %d", cert.NumEdges(), g.NumEdges())
	}
	if _, _, err := SparseCertificate(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
}
