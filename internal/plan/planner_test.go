package plan

import (
	"strconv"
	"testing"

	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
)

// The fit inputs of prior.go, by their counts.
var (
	g16k     = Of(16000, 96000)
	chain    = Of(35001, 140000) // BlockChain(5000, 8)
	torus    = Of(262144, 524288)
	g100k4n  = Of(100000, 400000)
	g100k10n = Of(100000, 1000000)
	g100k17n = Of(100000, 1700000)
)

// TestDecisionGolden pins the planner's choices on the fit grid of
// prior.go: each fit input unpinned and at a pinned p=1 or p=2, with
// MaxProcs 2 as on the host the rows were timed on. Each comment gives the
// measured median of the chosen engine and of the runner-up. These are
// behavioral contracts — a refit that moves one must update this table
// deliberately.
func TestDecisionGolden(t *testing.T) {
	p := New(Config{MaxProcs: 2, Registry: obs.NewRegistry()})
	cases := []struct {
		name       string
		f          Features
		pinned     int
		wantEngine string
		wantProcs  int
	}{
		// G(16000, 96000): sequential 9.7 ms; fast-bcc p=1 16.7 ms.
		{"g16k", g16k, 0, engine.Sequential, 1},
		{"g16k-p1", g16k, 1, engine.Sequential, 1},
		// G(16000, 96000): fast-bcc p=2 18.9 ms; tv-filter p=2 24.3 ms.
		{"g16k-p2", g16k, 2, engine.FastBCC, 2},
		// BlockChain(5000, 8): sequential 9.0 ms; fast-bcc p=1 18.7 ms.
		{"chain", chain, 0, engine.Sequential, 1},
		// BlockChain(5000, 8): fast-bcc p=2 59.4 ms, the grid's one miss:
		// tv-opt p=2 takes 32.2 ms, but without a diameter feature the chain
		// prices like any other graph below the large class.
		{"chain-p2", chain, 2, engine.FastBCC, 2},
		// G(100000, 400000): sequential 98.6 ms; fast-bcc p=2 108.3 ms.
		{"4n", g100k4n, 0, engine.Sequential, 1},
		// G(100000, 400000): fast-bcc p=2 108.3 ms; tv-smp p=2 155.5 ms.
		{"4n-p2", g100k4n, 2, engine.FastBCC, 2},
		// Torus 512×512: sequential 164.4 ms; fast-bcc p=2 234.3 ms.
		{"torus", torus, 0, engine.Sequential, 1},
		// Torus 512×512: fast-bcc p=2 234.3 ms; tv-smp p=2 360.5 ms.
		{"torus-p2", torus, 2, engine.FastBCC, 2},
		// G(100000, 1000000): fast-bcc p=2 200.1 ms; tv-filter p=2 211.3 ms,
		// sequential 222.8 ms.
		{"10n", g100k10n, 0, engine.FastBCC, 2},
		// G(100000, 1000000): sequential 222.8 ms; fast-bcc p=1 268.2 ms.
		{"10n-p1", g100k10n, 1, engine.Sequential, 1},
		// G(100000, 1700000): fast-bcc p=2 336.9 ms; tv-filter p=2 358.4 ms,
		// sequential 389.7 ms.
		{"17n", g100k17n, 0, engine.FastBCC, 2},
		// G(100000, 1700000): sequential 389.7 ms; fast-bcc p=1 412.1 ms.
		{"17n-p1", g100k17n, 1, engine.Sequential, 1},
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
	f := Of(50_000, 200_000)
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
	feats := []Features{Of(0, 0), Of(100, 150), g16k, chain, torus, g100k10n, Of(1_000_000, 8_000_000)}
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
	reg := obs.NewRegistry()
	p := New(Config{MaxProcs: 8, Registry: reg, Allow: func(string) bool { return false }})
	d := p.Decide(g100k4n, 0, false)
	if d.Engine != engine.Sequential || d.Procs != 1 {
		t.Fatalf("got (%s, p=%d), want (%s, p=1)", d.Engine, d.Procs, engine.Sequential)
	}
	if n := reg.Counter("bicc_plan_fallbacks_total", "").Load(); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
}

// TestFeaturesOfFollowsContent checks that features key nothing by a
// graph's address: an edge list rewritten in place is described by its new
// counts alone.
func TestFeaturesOfFollowsContent(t *testing.T) {
	const n = 256
	g := &graph.EdgeList{N: n}
	for v := int32(1); v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{U: v - 1, V: v}) // a path
	}
	if got := Extract(2, g); got != Of(n, n-1) {
		t.Fatalf("path: %+v", got)
	}
	g.N = 2 * n
	g.Edges = append(g.Edges, graph.Edge{U: 0, V: n - 1}) // a cycle plus isolated vertices
	if got := Extract(2, g); got != Of(2*n, n) {
		t.Fatalf("rewritten: %+v", got)
	}
}

// TestDecisionCounters checks that every decision lands once in the
// bicc_plan_* counters, by engine and by procs.
func TestDecisionCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{MaxProcs: 4, Registry: reg})
	var want Decision
	for i := 0; i < 5; i++ {
		want = p.Decide(g100k4n, 0, false)
	}
	if n := reg.CounterVec("bicc_plan_decisions_total", "", "engine").With(want.Engine).Load(); n != 5 {
		t.Fatalf("decisions{engine=%q} = %d, want 5", want.Engine, n)
	}
	if n := reg.CounterVec("bicc_plan_procs_total", "", "procs").With(strconv.Itoa(want.Procs)).Load(); n != 5 {
		t.Fatalf("procs{procs=%d} = %d, want 5", want.Procs, n)
	}
	if n := reg.Counter("bicc_plan_fallbacks_total", "").Load(); n != 0 {
		t.Fatalf("fallbacks = %d, want 0", n)
	}
}
