package spantree

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"bicc/internal/conncomp"
	"bicc/internal/faults"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// permuted relabels g's vertices by a seeded random permutation.
func permuted(g *graph.EdgeList, seed int64) *graph.EdgeList {
	perm := rand.New(rand.NewSource(seed)).Perm(int(g.N))
	out := &graph.EdgeList{N: g.N, Edges: make([]graph.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		out.Edges[i] = graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	return out
}

// manyComponents is 500 components: isolated vertices, chains, cycles,
// stars and small random graphs.
func manyComponents() *graph.EdgeList {
	rng := rand.New(rand.NewSource(7))
	parts := make([]*graph.EdgeList, 500)
	for i := range parts {
		k := 5 + rng.Intn(30)
		switch i % 5 {
		case 0:
			parts[i] = &graph.EdgeList{N: 1}
		case 1:
			parts[i] = gen.Chain(k)
		case 2:
			parts[i] = gen.Cycle(k + 1)
		case 3:
			parts[i] = gen.Star(k)
		default:
			parts[i] = gen.RandomConnected(k, 2*k, int64(i))
		}
	}
	return gen.Disconnected(parts...)
}

// TestWorkStealingStress runs the traversal 50 times per worker count on
// inputs that starve all but one worker (a long chain), hand one worker all
// the work at once (a star), spread it evenly (a permuted torus), or start
// many short traversals (500 components): every run must give a rooted
// spanning forest with one root per component.
func TestWorkStealingStress(t *testing.T) {
	inputs := map[string]*graph.EdgeList{
		"chain":      gen.Chain(20000),
		"star":       gen.Star(20001),
		"torus":      permuted(gen.Torus(128, 128), 3),
		"components": manyComponents(),
	}
	for name, g := range inputs {
		c := graph.ToCSR(2, g)
		comps := conncomp.Count(conncomp.UnionFind(g.N, g.Edges))
		for _, p := range []int{2, 3, 4, 8} {
			for rep := 0; rep < 50; rep++ {
				f := WorkStealing(p, c)
				checkRooted(t, g, f)
				if len(f.Roots) != comps {
					t.Fatalf("%s p=%d rep %d: %d roots, want %d", name, p, rep, len(f.Roots), comps)
				}
			}
		}
	}
}

// TestWorkStealingOneTeamPerForest: one call on 500 components starts one
// team of p workers for the whole forest, besides the p of the parallel
// initialisation, instead of a team per component.
func TestWorkStealingOneTeamPerForest(t *testing.T) {
	old := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(old)
	tasks := obs.Default().Counter("bicc_par_tasks_total", "")
	g := manyComponents()
	c := graph.ToCSR(2, g)
	for _, p := range []int{2, 4} {
		before := tasks.Load()
		f := WorkStealing(p, c)
		if n := tasks.Load() - before; n > int64(2*p) {
			t.Errorf("p=%d: %d worker tasks on 500 components, want at most %d", p, n, 2*p)
		}
		checkRooted(t, g, f)
	}
}

// runWithin runs fn and fails the test if it has not returned within d: a
// traversal worker that misses a cancellation poll waits forever.
func runWithin(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("traversal still running after %v", d)
	}
}

// TestWorkStealingFaults injects at spantree.steal on a chain, where one
// worker expands while the others wait idle in the pool: a panic must come
// back as a *par.PanicError (re-raised without a caller token, as the
// token's cause with one) and a cancel rule must return its cause.
func TestWorkStealingFaults(t *testing.T) {
	defer faults.Deactivate()
	c := graph.ToCSR(2, gen.Chain(20000))
	activate := func(kind faults.Kind) {
		r := faults.NewRule(kind, siteSteal)
		r.Iter, r.Count = 500, 1
		faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
	}
	for _, p := range []int{2, 4} {
		activate(faults.KindPanic)
		runWithin(t, time.Second, func() {
			defer func() {
				var pe *par.PanicError
				if v := recover(); v == nil {
					t.Errorf("p=%d: panic without a caller token was swallowed", p)
				} else if err, ok := v.(error); !ok || !errors.As(err, &pe) {
					t.Errorf("p=%d: re-raised %T %v, want a *par.PanicError", p, v, v)
				}
			}()
			WorkStealing(p, c)
		})

		activate(faults.KindPanic)
		runWithin(t, time.Second, func() {
			cn := &par.Canceler{}
			WorkStealingC(cn, p, c)
			var pe *par.PanicError
			if !errors.As(cn.Err(), &pe) {
				t.Errorf("p=%d: canceler holds %v, want a *par.PanicError", p, cn.Err())
			}
		})

		activate(faults.KindCancel)
		runWithin(t, time.Second, func() {
			cn := &par.Canceler{}
			WorkStealingC(cn, p, c)
			if !errors.Is(cn.Err(), faults.ErrInjected) {
				t.Errorf("p=%d: canceler holds %v, want the injected cause", p, cn.Err())
			}
		})
	}
}
