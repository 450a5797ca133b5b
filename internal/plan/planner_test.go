package plan

import (
	"testing"

	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
)

// feat builds a feature vector the way Extract would, from raw measurements.
// The last argument is the fixture's degree skew (max/mean degree); the
// prior does not read it, so it only documents each graph's shape.
func feat(n, m int, depth int32, _ float64) Features {
	f := Features{N: n, M: m, Depth: depth}
	if n > 0 {
		f.Density = float64(m) / float64(n)
	}
	f.SizeClass = sizeClass(n + m)
	f.DensityClass = densityClass(f.Density)
	f.DiamClass = diamClass(depth, n)
	return f
}

// TestDecisionGolden pins the planner's choices over a synthetic feature
// grid: the paper-rule region at high parallelism, the FAST-BCC promotion
// region at low parallelism, and the tiny-graph sequential region.
// These are behavioral contracts — a prior retune that moves one must update
// this table deliberately.
func TestDecisionGolden(t *testing.T) {
	p := New(Config{MaxProcs: 8, Registry: obs.NewRegistry()})
	cases := []struct {
		name       string
		f          Features
		pinned     int
		wantEngine string
		wantProcs  int
	}{
		// Tiny graphs: worker startup dominates, DFS baseline wins outright.
		{"tiny-sparse", feat(100, 150, 8, 2), 0, engine.Sequential, 1},
		{"tiny-dense", feat(1000, 4000, 4, 3), 0, engine.Sequential, 1},
		// FAST-BCC promotion: large dense graph pinned to p=1 — the
		// acceptance-criterion cell (m = 4n, no history, planner on).
		{"promo-dense-p1", feat(100_000, 400_000, 6, 3), 1, engine.FastBCC, 1},
		// Low parallelism, both densities: the skeleton engine still wins.
		{"promo-dense-p2", feat(100_000, 400_000, 6, 3), 2, engine.FastBCC, 2},
		{"promo-sparse-p1", feat(100_000, 150_000, 9, 2), 1, engine.FastBCC, 1},
		// Paper §4 region at full parallelism: TV-filter on dense inputs,
		// TV-opt on sparse ones.
		{"paper-dense-p8", feat(100_000, 400_000, 6, 3), 8, engine.TVFilter, 8},
		{"paper-sparse-p8", feat(100_000, 150_000, 9, 2), 8, engine.TVOpt, 8},
		// High-diameter inputs punish the BFS-based engines: chains go to
		// sequential at p=1 and TV-opt's traversal when parallel.
		{"chain-p1", feat(100_000, 100_000, 50_000, 1.2), 1, engine.Sequential, 1},
		{"chain-p8", feat(100_000, 100_000, 50_000, 1.2), 8, engine.TVOpt, 8},
		// Unpinned: the planner picks procs too. Large dense graph on an
		// 8-way cap should take the full-width TV-filter plan.
		{"free-dense", feat(100_000, 400_000, 6, 3), 0, engine.TVFilter, 8},
		{"free-tiny", feat(100, 150, 8, 2), 0, engine.Sequential, 1},
	}
	for _, tc := range cases {
		d := p.Decide(tc.f, tc.pinned, true)
		if d.Engine != tc.wantEngine || d.Procs != tc.wantProcs {
			t.Errorf("%s: got (%s, p=%d), want (%s, p=%d)\ncandidates: %+v",
				tc.name, d.Engine, d.Procs, tc.wantEngine, tc.wantProcs, d.Candidates)
		}
	}
}

// TestDecideDeterministic asserts the planner is a pure function of its
// inputs: identical feature vectors always produce identical decisions.
func TestDecideDeterministic(t *testing.T) {
	p := New(Config{MaxProcs: 8, Registry: obs.NewRegistry()})
	f := feat(50_000, 200_000, 7, 3)
	first := p.Decide(f, 0, false)
	for i := 0; i < 100; i++ {
		if d := p.Decide(f, 0, false); d.Engine != first.Engine || d.Procs != first.Procs {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, d, first)
		}
	}
}

// TestBreakerFilterProperty is the safety-net property: across a sweep of
// feature vectors and every subset of open breakers, the planner never
// returns an engine its Allow filter rejected — except the sequential
// fallback when the filter rejects everything.
func TestBreakerFilterProperty(t *testing.T) {
	feats := []Features{
		feat(0, 0, 0, 0),
		feat(100, 150, 8, 2),
		feat(100_000, 400_000, 6, 3),
		feat(100_000, 150_000, 9, 2),
		feat(100_000, 100_000, 50_000, 1.2),
		feat(1_000_000, 8_000_000, 5, 20),
	}
	for mask := 0; mask < 1<<len(EngineOrder); mask++ {
		open := map[string]bool{}
		for i, eng := range EngineOrder {
			if mask&(1<<i) != 0 {
				open[eng] = true
			}
		}
		p := New(Config{
			MaxProcs: 8,
			Registry: obs.NewRegistry(),
			Allow:    func(eng string) bool { return !open[eng] },
		})
		for _, f := range feats {
			for _, pinned := range []int{0, 1, 4} {
				d := p.Decide(f, pinned, false)
				if !open[d.Engine] {
					continue
				}
				// A rejected engine may only appear as the all-filtered
				// sequential fallback.
				if d.Engine != engine.Sequential || mask != 1<<len(EngineOrder)-1 {
					t.Fatalf("mask %05b: planner chose open-breaker engine %s (pinned=%d, f=%+v)",
						mask, d.Engine, pinned, f)
				}
			}
		}
	}
}

// TestAllFilteredFallsBackToSequential pins the path-of-last-resort contract
// and its metric.
func TestAllFilteredFallsBackToSequential(t *testing.T) {
	p := New(Config{MaxProcs: 8, Registry: obs.NewRegistry(), Allow: func(string) bool { return false }})
	d := p.Decide(feat(100_000, 400_000, 6, 3), 0, false)
	if d.Engine != engine.Sequential || d.Procs != 1 {
		t.Fatalf("got (%s, p=%d), want (%s, p=1)", d.Engine, d.Procs, engine.Sequential)
	}
	if s := p.Snapshot(); s.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.Fallbacks)
	}
}

// TestFeaturesOfFollowsContent checks that FeaturesOf keys nothing by a
// graph's address: an edge list rewritten in place to a graph of equal n
// and m but another diameter class — what a new graph allocated at a
// collected one's address looks like — gets its own features.
func TestFeaturesOfFollowsContent(t *testing.T) {
	p := New(Config{MaxProcs: 2, Registry: obs.NewRegistry()})
	const n = 256
	g := &graph.EdgeList{N: n}
	for v := int32(1); v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{U: v - 1, V: v}) // a path
	}
	path := p.FeaturesOf(g)
	for v := int32(1); v < n; v++ {
		g.Edges[v-1] = graph.Edge{U: 0, V: v} // a star
	}
	star := p.FeaturesOf(g)
	if path.DiamClass != DiamHigh || star.DiamClass != DiamLow {
		t.Fatalf("diameter classes path %d, star %d; want %d and %d", path.DiamClass, star.DiamClass, DiamHigh, DiamLow)
	}
	if n := extractionCount(p); n != 2 {
		t.Fatalf("extractions = %d, want 2", n)
	}
}

func extractionCount(p *Planner) int64 { return p.extractions.Load() }

// TestSnapshotCounts sanity-checks the /statsz section numbers.
func TestSnapshotCounts(t *testing.T) {
	p := New(Config{MaxProcs: 4, Registry: obs.NewRegistry()})
	f := feat(100_000, 400_000, 6, 3)
	for i := 0; i < 5; i++ {
		p.Decide(f, 0, false)
	}
	s := p.Snapshot()
	if s.MaxProcs != 4 || s.Decisions != 5 || s.Fallbacks != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
	var n int64
	for _, v := range s.ByEngine {
		n += v
	}
	if n != 5 {
		t.Fatalf("by_engine sums to %d, want 5: %+v", n, s.ByEngine)
	}
}
