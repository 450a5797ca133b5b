package plan

import (
	"cmp"
	"slices"
	"testing"

	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// checkFeatures asserts the invariants Extract promises on any input: total
// (no panic, checked by arriving here), the counts echoed and every class
// in range.
func checkFeatures(t *testing.T, g *graph.EdgeList, f Features) {
	t.Helper()
	if f.N != int(g.N) || f.M != len(g.Edges) {
		t.Fatalf("dimensions: got n=%d m=%d, want n=%d m=%d", f.N, f.M, g.N, len(g.Edges))
	}
	if f.SizeClass < 0 || f.SizeClass > 8 {
		t.Fatalf("size class %d out of range", f.SizeClass)
	}
	if f.DensityClass < 0 || f.DensityClass > 2 {
		t.Fatalf("density class %d out of range", f.DensityClass)
	}
	if f.DiamClass != 0 {
		t.Fatalf("diam class %d, want 0", f.DiamClass)
	}
	if f.Density < 0 {
		t.Fatalf("negative density %g", f.Density)
	}
}

// TestExtractShapes covers the named degenerate shapes directly.
func TestExtractShapes(t *testing.T) {
	star := func(n int32) *graph.EdgeList {
		g := &graph.EdgeList{N: n}
		for v := int32(1); v < n; v++ {
			g.Edges = append(g.Edges, graph.Edge{U: 0, V: v})
		}
		return g
	}
	chain := func(n int32) *graph.EdgeList {
		g := &graph.EdgeList{N: n}
		for v := int32(1); v < n; v++ {
			g.Edges = append(g.Edges, graph.Edge{U: v - 1, V: v})
		}
		return g
	}
	cases := map[string]*graph.EdgeList{
		"empty":         {N: 0},
		"single-vertex": {N: 1},
		"edgeless":      {N: 100},
		"self-loop":     {N: 1, Edges: []graph.Edge{{U: 0, V: 0}}},
		"parallel":      {N: 2, Edges: []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 0}}},
		"star":          star(200),
		"chain":         chain(300),
		"disconnected": {N: 10, Edges: []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 5},
		}},
		"isolated-zero": {N: 5, Edges: []graph.Edge{{U: 3, V: 4}}},
	}
	for _, g := range cases {
		checkFeatures(t, g, Extract(2, g))
	}
}

// FuzzDecide drives the planner with arbitrary counts, pinned procs, host
// worker count and open-breaker mask (bit i blocks EngineOrder[i]) and
// asserts that every decision is total and deterministic, names an allowed
// engine (sequential when none is allowed), runs at the pin or within
// [1, workers], heads an explain slate sorted by score, and, pinned with
// no breaker open, names the engine Pick does.
func FuzzDecide(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint32(16000), uint32(96000), uint16(0), uint8(2), uint8(0))
	f.Add(uint32(100000), uint32(1000000), uint16(2), uint8(8), uint8(1<<1)) // fast-bcc blocked
	f.Add(uint32(35001), uint32(140000), uint16(1), uint8(1), uint8(1))      // sequential blocked
	f.Add(uint32(1), uint32(4_000_000_000), uint16(1024), uint8(255), uint8(0x1f))
	f.Fuzz(func(t *testing.T, n, m uint32, pinned uint16, maxProcs, mask uint8) {
		allow := func(eng string) bool { return mask&(1<<slices.Index(EngineOrder, eng)) == 0 }
		p := newAt(par.Procs(int(maxProcs)), Config{Registry: obs.NewRegistry(), Allow: allow})
		feat := Of(int(n), int(m))
		pin := int(pinned % 2048)
		d := p.Decide(feat, pin, false)
		if again := p.Decide(feat, pin, false); again.Engine != d.Engine || again.Procs != d.Procs {
			t.Fatalf("decisions diverged: %+v then %+v", d, again)
		}
		noneAllowed := true
		for _, eng := range EngineOrder {
			noneAllowed = noneAllowed && !allow(eng)
		}
		if !allow(d.Engine) && (!noneAllowed || d.Engine != engine.Sequential) {
			t.Fatalf("mask %05b: chose blocked engine %s", mask, d.Engine)
		}
		if pin > 0 && mask&0x1f == 0 {
			if pick := Pick(feat, pin); pick != d.Engine {
				t.Fatalf("Pick at p=%d chose %s, the planner %s", pin, pick, d.Engine)
			}
		}
		if maxP := p.procs[len(p.procs)-1]; d.Procs != pin && (d.Procs < 1 || d.Procs > maxP) {
			t.Fatalf("procs %d: pin %d, max %d", d.Procs, pin, maxP)
		}
		x := p.Decide(feat, pin, true)
		if len(x.Candidates) == 0 || x.Engine != d.Engine || x.Procs != d.Procs {
			t.Fatalf("explained decision %+v, plain %+v", x, d)
		}
		if head := x.Candidates[0]; head.Engine != d.Engine || head.Procs != d.Procs {
			t.Fatalf("slate head %+v, decision %+v", head, d)
		}
		if !slices.IsSortedFunc(x.Candidates, func(a, b Candidate) int { return cmp.Compare(a.ScoreNs, b.ScoreNs) }) {
			t.Fatalf("slate not sorted by score: %+v", x.Candidates)
		}
	})
}
