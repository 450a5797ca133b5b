package faults_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bicc"
	"bicc/internal/core"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/incr"
	"bicc/internal/par"
)

// matrixGraph is a deterministic ~400-vertex graph with several blocks:
// two chord-dense rings joined by a bridge, plus pendant vertices. Big
// enough that every parallel engine runs its real phases.
func matrixGraph(t *testing.T) *bicc.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const half = 192
	var edges []bicc.Edge
	ring := func(base int32) {
		for i := int32(0); i < half; i++ {
			edges = append(edges, bicc.Edge{U: base + i, V: base + (i+1)%half})
		}
		for k := 0; k < half/2; k++ {
			u := base + rng.Int31n(half)
			v := base + rng.Int31n(half)
			edges = append(edges, bicc.Edge{U: u, V: v})
		}
	}
	ring(0)
	ring(half)
	edges = append(edges, bicc.Edge{U: 0, V: half}) // bridge between the rings
	n := int32(2 * half)
	for i := 0; i < 8; i++ { // pendant vertices: more bridges and cut vertices
		edges = append(edges, bicc.Edge{U: rng.Int31n(n), V: n})
		n++
	}
	g, _, _, err := bicc.NewGraphNormalized(int(n), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sortMesh is a 48×48 mesh. TV-SMP's tour of it has 9024 arcs, above the
// 4096 records from which psort.SampleSortPairs samples instead of running
// one quicksort, so psort.sample fires on it; on matrixGraph's tour (about
// 780 arcs) it never does.
func sortMesh(t *testing.T) *bicc.Graph {
	t.Helper()
	g, err := bicc.MeshGraph(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sequential is g's decomposition by the sequential engine, fault-free.
func sequential(t *testing.T, g *bicc.Graph) *bicc.Result {
	t.Helper()
	res, err := bicc.BiconnectedComponentsCtx(context.Background(), g,
		&bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		t.Fatalf("clean sequential run failed: %v", err)
	}
	return res
}

// TestFaultMatrix is the fault-isolation contract: for every registered
// injection site and every fault kind, every engine must either return a
// correct result or a typed, attributable error — never crash the process,
// never hang, never return a silently wrong decomposition. The psort.sample
// rows run on sortMesh, where TV-SMP's tour is long enough to sample-sort,
// and their tv-smp row fails unless the rule fired.
func TestFaultMatrix(t *testing.T) {
	defer faults.Deactivate()
	ring, mesh := matrixGraph(t), sortMesh(t)
	ringWant, meshWant := sequential(t, ring), sequential(t, mesh)

	algos := bicc.Algorithms()
	kinds := []faults.Kind{faults.KindPanic, faults.KindDelay, faults.KindCancel}
	sites := faults.Sites()
	if len(sites) < 10 {
		t.Fatalf("only %d registered sites (%v) — instrumentation missing?", len(sites), sites)
	}
	for _, site := range sites {
		if strings.HasPrefix(site, "test.") {
			continue // scratch sites registered by unit tests in this package
		}
		g, want := ring, ringWant
		if site == "psort.sample" {
			g, want = mesh, meshWant
		}
		for _, kind := range kinds {
			for _, algo := range algos {
				t.Run(site+"/"+kind.String()+"/"+algo.String(), func(t *testing.T) {
					r := faults.NewRule(kind, site)
					switch kind {
					case faults.KindPanic, faults.KindCancel:
						r.Count = 1
					case faults.KindDelay:
						r.Count = 3
						r.Delay = time.Millisecond
					}
					faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
					defer faults.Deactivate()

					res, err := bicc.BiconnectedComponentsCtx(context.Background(), g,
						&bicc.Options{Algorithm: algo, Procs: 4})
					// The derived views below (articulation points, bridges)
					// run instrumented code too; verify them fault-free.
					faults.Deactivate()
					if site == "psort.sample" && algo == bicc.TVSMP && r.Fired() == 0 {
						t.Fatal("the rule never fired: TV-SMP's tour was not sample-sorted")
					}
					if err != nil {
						// A fault the engine could not absorb must surface as
						// a typed error traceable to the injection.
						var pe *par.PanicError
						var ip *faults.InjectedPanic
						switch {
						case errors.As(err, &ip):
						case errors.Is(err, faults.ErrInjected):
						case errors.As(err, &pe):
						default:
							t.Fatalf("untyped error %T: %v", err, err)
						}
						if kind == faults.KindDelay {
							t.Fatalf("a pure delay must not fail the run: %v", err)
						}
						return
					}
					// The engine absorbed the fault (or never reached the
					// site): the decomposition must still be exact.
					if res.NumComponents != want.NumComponents {
						t.Fatalf("silent corruption: %d components, want %d",
							res.NumComponents, want.NumComponents)
					}
					if got, want := len(res.ArticulationPoints()), len(want.ArticulationPoints()); got != want {
						t.Fatalf("silent corruption: %d articulation points, want %d", got, want)
					}
					if got, want := len(res.Bridges()), len(want.Bridges()); got != want {
						t.Fatalf("silent corruption: %d bridges, want %d", got, want)
					}
				})
			}
		}
	}
}

// unreachedSites names every registered site that no engine run reaches,
// with the reason. Every other site must fire during an engine run.
var unreachedSites = map[string]string{
	"durable.wal.header":  "bccd's write-ahead log, not an engine",
	"durable.wal.payload": "bccd's write-ahead log, not an engine",
	"durable.wal.sync":    "bccd's write-ahead log, not an engine",
	"durable.snap.write":  "bccd's snapshots, not an engine",
	"durable.snap.rename": "bccd's snapshots, not an engine",
	"wal.verify":          "the scrubber's read path, not an engine",
	"repl.ship":           "replication, not an engine",
	"repl.ack":            "replication, not an engine",
	"repl.ring":           "replication, not an engine",
	"repl.promote":        "replication failover, not an engine",
	"incr.apply":          "incremental mutations; TestFaultMatrixIncr reaches it",
	"incr.rebuild":        "incremental mutations; TestFaultMatrixIncr reaches it",
	"shard.build":         "the block index; TestFaultMatrixShardBuild reaches it",
	"listrank.wyllie":     "eulertour.Sequence always asks for Helman–JáJá; only ablations rank with Wyllie",
	"prefix.compact":      "no engine compacts edges; the derived views (articulation points, bridges) and SparseCertificate do",
}

// TestFaultSitesReached catches a fault site that stops firing: the matrix
// above accepts a correct answer, and a site nothing calls always yields
// one. It runs every engine at p = 1 and 2 on matrixGraph, and on a 48×48
// mesh whose tour is long enough for TV-SMP to sample-sort it, under one
// KindCorrupt rule per registered site; such a rule does nothing at a plain
// Inject site, but Fired counts it. Every site outside unreachedSites must
// fire, and none in it may.
func TestFaultSitesReached(t *testing.T) {
	defer faults.Deactivate()
	g, mesh := matrixGraph(t), sortMesh(t)
	rules := map[string]*faults.Rule{}
	plan := &faults.Plan{Seed: 1}
	for _, site := range faults.Sites() {
		if strings.HasPrefix(site, "test.") {
			continue
		}
		r := faults.NewRule(faults.KindCorrupt, site)
		rules[site] = r
		plan.Rules = append(plan.Rules, r)
	}
	faults.Activate(plan)
	for _, g := range []*bicc.Graph{g, mesh} {
		for _, algo := range bicc.Algorithms() {
			for _, p := range []int{1, 2} {
				if _, err := bicc.BiconnectedComponentsCtx(context.Background(), g,
					&bicc.Options{Algorithm: algo, Procs: p}); err != nil {
					t.Fatalf("%v at p=%d: %v", algo, p, err)
				}
			}
		}
	}
	faults.Deactivate()
	for site, r := range rules {
		why, listed := unreachedSites[site]
		switch {
		case listed && r.Fired() > 0:
			t.Errorf("%s fired %d times, but is listed as unreached (%s)", site, r.Fired(), why)
		case !listed && r.Fired() == 0:
			t.Errorf("%s never fired in an engine run", site)
		}
	}
}

// TestFaultMatrixShardBuild extends the matrix past the engines to the
// block index's build site, shard.build: for every fault kind and every
// algorithm's decomposition, a faulted BuildBlockIndex must return a typed
// error and no partial index, and an absorbed fault (pure delay) must still
// produce an index identical to an unfaulted build. The engine matrices
// above cover the site too (vacuously — engines never build an index).
func TestFaultMatrixShardBuild(t *testing.T) {
	defer faults.Deactivate()
	g := matrixGraph(t)
	algos := bicc.Algorithms()
	kinds := []faults.Kind{faults.KindPanic, faults.KindDelay, faults.KindCancel}
	for _, algo := range algos {
		res, err := bicc.BiconnectedComponentsCtx(context.Background(), g,
			&bicc.Options{Algorithm: algo, Procs: 4})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for _, kind := range kinds {
			t.Run(kind.String()+"/"+algo.String(), func(t *testing.T) {
				r := faults.NewRule(kind, core.SiteBlockIndex)
				switch kind {
				case faults.KindPanic, faults.KindCancel:
					// Fire mid-build so a half-built index exists to discard.
					r.Iter = res.NumComponents / 2
					r.Count = 1
				case faults.KindDelay:
					r.Count = 3
					r.Delay = time.Millisecond
				}
				faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
				defer faults.Deactivate()

				n := int32(g.NumVertices())
				idx, err := core.BuildBlockIndex(context.Background(), n, g.Edges(), res.EdgeComponent, res.NumComponents)
				faults.Deactivate()
				switch kind {
				case faults.KindPanic:
					if idx != nil || err == nil {
						t.Fatalf("faulted build returned idx=%v err=%v, want nil index + typed error", idx, err)
					}
					var pe *par.PanicError
					var ip *faults.InjectedPanic
					if !errors.As(err, &pe) || !errors.As(err, &ip) {
						t.Fatalf("panic not contained as typed error: %T: %v", err, err)
					}
				case faults.KindCancel:
					if idx != nil || !errors.Is(err, faults.ErrInjected) {
						t.Fatalf("canceled build returned idx=%v err=%v, want nil index + ErrInjected", idx, err)
					}
				case faults.KindDelay:
					if err != nil {
						t.Fatalf("a pure delay must not fail the build: %v", err)
					}
					want := core.NewBlockIndex(n, g.Edges(), res.EdgeComponent, res.NumComponents)
					if !reflect.DeepEqual(idx, want) {
						t.Fatal("delayed build differs from an unfaulted one")
					}
				}
			})
		}
	}
}

// TestFaultMatrixIncr extends the matrix to the incremental-apply sites:
// for every fault kind at incr.apply and incr.rebuild, a faulted Apply must
// return a typed error with the State byte-identical to before the batch —
// the precondition the service's degrade-to-full path relies on — after
// which a full recompute of the final edge list must yield exactly the
// labels a scratch engine run produces. A pure delay must commit normally.
// (Importing the incr package also adds both sites to Sites(), so the
// engine matrices above cover them vacuously — engines never mutate.)
func TestFaultMatrixIncr(t *testing.T) {
	defer faults.Deactivate()
	g := matrixGraph(t)
	seqRun := func(ctx context.Context, rg *bicc.Graph) (*bicc.Result, error) {
		return bicc.BiconnectedComponentsCtx(ctx, rg, &bicc.Options{Algorithm: bicc.Sequential})
	}
	kinds := []faults.Kind{faults.KindPanic, faults.KindDelay, faults.KindCancel}
	for _, site := range []string{"incr.apply", "incr.rebuild"} {
		for _, kind := range kinds {
			t.Run(site+"/"+kind.String(), func(t *testing.T) {
				res, err := seqRun(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				st, err := incr.NewState(g, res)
				if err != nil {
					t.Fatal(err)
				}
				before := st.Labels()
				edgesBefore := st.NumEdges()
				// A structural batch: delete the inter-ring bridge and insert
				// a cross-ring edge — several blocks go dirty, so both sites
				// fire.
				batch := []graph.Delta{
					{Del: true, U: 0, V: 192},
					{U: 5, V: 200},
				}

				r := faults.NewRule(kind, site)
				switch kind {
				case faults.KindPanic, faults.KindCancel:
					r.Count = 1
				case faults.KindDelay:
					r.Count = 3
					r.Delay = time.Millisecond
				}
				prepared, perr := st.Prepare(batch)
				if perr != nil {
					t.Fatal(perr)
				}
				faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
				// Threshold 1: never degrade on region size, so the rebuild
				// path (and its fault site) actually runs for this batch.
				stats, aerr := st.Apply(context.Background(), prepared, incr.Config{Threshold: 1}, seqRun)
				faults.Deactivate()

				if kind == faults.KindDelay {
					if aerr != nil {
						t.Fatalf("a pure delay must not fail the apply: %v", aerr)
					}
					if stats.Mode == incr.ModeAbsorb {
						t.Fatalf("structural batch reported mode %v", stats.Mode)
					}
				} else {
					if aerr == nil {
						t.Fatal("faulted apply reported success")
					}
					var pe *par.PanicError
					var ip *faults.InjectedPanic
					switch {
					case errors.As(aerr, &ip):
					case errors.Is(aerr, faults.ErrInjected):
					case errors.As(aerr, &pe):
					default:
						t.Fatalf("untyped error %T: %v", aerr, aerr)
					}
					// Atomicity: the failed batch must have left no trace.
					if st.NumEdges() != edgesBefore {
						t.Fatalf("faulted apply mutated the edge list: %d edges, had %d",
							st.NumEdges(), edgesBefore)
					}
					for i, c := range st.Labels() {
						if c != before[i] {
							t.Fatalf("faulted apply relabeled edge %d: %d, had %d", i, c, before[i])
						}
					}
					// Degrade to full, exactly as the service does: recompute
					// the final edge list from scratch and rebuild the state.
					fg := prepared.Graph()
					fres, rerr := seqRun(context.Background(), fg)
					if rerr != nil {
						t.Fatalf("degraded full recompute: %v", rerr)
					}
					st, err = incr.NewState(fg, fres)
					if err != nil {
						t.Fatal(err)
					}
				}

				// Either path must now match a scratch run on the state's own
				// edge list, label for label.
				sg, gerr := bicc.NewGraph(st.N(), st.Edges())
				if gerr != nil {
					t.Fatal(gerr)
				}
				want, werr := seqRun(context.Background(), sg)
				if werr != nil {
					t.Fatal(werr)
				}
				labels := st.Labels()
				if st.NumComponents() != want.NumComponents {
					t.Fatalf("components %d, scratch %d", st.NumComponents(), want.NumComponents)
				}
				for i, c := range want.EdgeComponent {
					if labels[i] != c {
						t.Fatalf("edge %d labeled %d, scratch %d", i, labels[i], c)
					}
				}
			})
		}
	}
}

// TestFaultMatrixWithFallback proves the supervisor half of the contract:
// under FallbackSequential a persistent panic at any site still yields a
// correct decomposition (degraded at worst), with the original fault
// preserved as the cause. Like TestFaultMatrix it runs the psort.sample
// rows on sortMesh.
func TestFaultMatrixWithFallback(t *testing.T) {
	defer faults.Deactivate()
	ring, mesh := matrixGraph(t), sortMesh(t)
	ringWant, meshWant := sequential(t, ring), sequential(t, mesh)
	for _, site := range faults.Sites() {
		if strings.HasPrefix(site, "test.") || site == "core.seq" {
			// The sequential engine is the fallback's destination; a
			// persistent fault there is covered by TestFaultMatrix.
			continue
		}
		g, want := ring, ringWant
		if site == "psort.sample" {
			g, want = mesh, meshWant
		}
		for _, algo := range bicc.Algorithms() {
			if algo == bicc.Sequential {
				continue
			}
			t.Run(site+"/"+algo.String(), func(t *testing.T) {
				faults.Activate(&faults.Plan{Seed: 1,
					Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, site)}})
				defer faults.Deactivate()

				res, err := bicc.BiconnectedComponentsCtx(context.Background(), g,
					&bicc.Options{Algorithm: algo, Procs: 4, Fallback: bicc.FallbackSequential})
				faults.Deactivate()
				if err != nil {
					t.Fatalf("fallback did not absorb persistent panic: %v", err)
				}
				if res.NumComponents != want.NumComponents {
					t.Fatalf("wrong decomposition: %d components, want %d",
						res.NumComponents, want.NumComponents)
				}
				if res.Degraded {
					if res.Algorithm != bicc.Sequential {
						t.Errorf("degraded result reports algorithm %v", res.Algorithm)
					}
					var ip *faults.InjectedPanic
					if !errors.As(res.DegradedCause, &ip) {
						t.Errorf("DegradedCause %v does not unwrap to the injected panic", res.DegradedCause)
					}
				}
			})
		}
	}
}

// TestFaultMatrixPipelineSteps targets each of core.pipeline's crossings in
// turn. Custom crosses the site once after each phase below, with iter 1 to
// 4, and TestFaultMatrix's rules fire at its first crossings only, so a
// fault after low/high or after the label pass meets the contract here.
// Every parallel engine crosses every step, so each row must see its rule
// fire: a panic or a cancel fails the run with the injected fault, a delay
// leaves the labels byte-identical to sequential's, and a persistent panic
// under FallbackSequential (the fallback rows) comes back degraded to
// sequential's labels, with the panic as the cause.
func TestFaultMatrixPipelineSteps(t *testing.T) {
	defer faults.Deactivate()
	g := matrixGraph(t)
	want := sequential(t, g)
	steps := []string{core.PhaseSpanningTree, core.PhaseRoot, core.PhaseLowHigh, core.PhaseConnComp}
	for i, step := range steps {
		for _, mode := range []string{"panic", "delay", "cancel", "fallback"} {
			for _, algo := range bicc.Algorithms() {
				if algo == bicc.Sequential {
					continue // it never crosses core.pipeline
				}
				t.Run(step+"/"+mode+"/"+algo.String(), func(t *testing.T) {
					r := faults.NewRule(faults.KindPanic, "core.pipeline")
					r.Iter = i + 1
					opts := &bicc.Options{Algorithm: algo, Procs: 4}
					switch mode {
					case "delay":
						r.Kind, r.Delay = faults.KindDelay, time.Millisecond
					case "cancel":
						r.Kind = faults.KindCancel
					case "fallback":
						opts.Fallback = bicc.FallbackSequential
					}
					faults.Activate(&faults.Plan{Seed: 1, Rules: []*faults.Rule{r}})
					res, err := bicc.BiconnectedComponentsCtx(context.Background(), g, opts)
					faults.Deactivate()
					if r.Fired() == 0 {
						t.Fatalf("the rule never fired: %v did not cross core.pipeline after %s", algo, step)
					}
					var ip *faults.InjectedPanic
					switch mode {
					case "panic":
						if !errors.As(err, &ip) {
							t.Fatalf("err = %v, want the injected panic", err)
						}
						return
					case "cancel":
						if !errors.Is(err, faults.ErrInjected) {
							t.Fatalf("err = %v, want the injected cancellation", err)
						}
						return
					case "fallback":
						if err == nil && (!res.Degraded || !errors.As(res.DegradedCause, &ip)) {
							t.Fatalf("degraded=%v cause=%v, want a result degraded by the injected panic",
								res.Degraded, res.DegradedCause)
						}
					}
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					if !slices.Equal(res.EdgeComponent, want.EdgeComponent) {
						t.Fatal("labels differ from sequential's")
					}
				})
			}
		}
	}
}
