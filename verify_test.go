package bicc

import (
	"testing"
	"testing/quick"
)

func TestVerifyAcceptsCorrectResults(t *testing.T) {
	g, err := RandomGraph(80, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Algorithms() {
		res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, res); err != nil {
			t.Errorf("%v: correct result rejected: %v", a, err)
		}
	}
}

func TestVerifyRejectsTamperedResults(t *testing.T) {
	g := mustGraph(t, 5, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 2, V: 3}, {U: 3, V: 4}, // chain
	})
	res, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}

	// Merge two blocks that share a cut vertex: a cut inside the block.
	tampered := *res
	tampered.EdgeComponent = append([]int32(nil), res.EdgeComponent...)
	bridge := res.EdgeComponent[3]
	tri := res.EdgeComponent[0]
	for i, c := range tampered.EdgeComponent {
		if c == bridge {
			tampered.EdgeComponent[i] = tri
		}
	}
	tampered.NumComponents-- // keep ids dense by renumbering the rest
	for i, c := range tampered.EdgeComponent {
		if c > bridge {
			tampered.EdgeComponent[i] = c - 1
		}
	}
	if err := Verify(g, &tampered); err == nil {
		t.Error("merged blocks accepted")
	}

	// Split the triangle: leaves a part whose shared vertex cuts it (or a
	// disconnected edge pair).
	split := *res
	split.EdgeComponent = append([]int32(nil), res.EdgeComponent...)
	split.EdgeComponent[0] = int32(res.NumComponents) // peel one triangle edge off
	split.NumComponents++
	if err := Verify(g, &split); err == nil {
		t.Error("split block accepted")
	}

	// Sparse ids.
	sparse := *res
	sparse.EdgeComponent = append([]int32(nil), res.EdgeComponent...)
	sparse.NumComponents++
	if err := Verify(g, &sparse); err == nil {
		t.Error("unused block id accepted")
	}

	// Out-of-range label.
	bad := *res
	bad.EdgeComponent = append([]int32(nil), res.EdgeComponent...)
	bad.EdgeComponent[0] = 99
	if err := Verify(g, &bad); err == nil {
		t.Error("out-of-range label accepted")
	}

	// Length mismatch and nils.
	short := *res
	short.EdgeComponent = res.EdgeComponent[:2]
	if err := Verify(g, &short); err == nil {
		t.Error("short label array accepted")
	}
	if err := Verify(nil, res); err == nil {
		t.Error("nil graph accepted")
	}
	if err := Verify(g, nil); err == nil {
		t.Error("nil result accepted")
	}
}

// Property: Verify certifies every algorithm's output on random graphs.
func TestQuickVerifyAll(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn%30) + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g, err := RandomGraph(n, m, seed)
		if err != nil {
			return false
		}
		for _, a := range Algorithms() {
			res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: 2})
			if err != nil {
				return false
			}
			if err := Verify(g, res); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
