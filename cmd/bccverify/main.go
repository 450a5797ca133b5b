// Command bccverify cross-validates every parallel engine in the engine
// table against the sequential oracle on randomized instances — the
// repository's standing fuzz harness. It generates random graphs across a
// size/density grid, runs every engine at several worker counts on one
// shared graph per instance (so one run's CSR serves every other run), and
// reports the first divergence in block counts, edge partitions,
// articulation points, or bridges. Then it runs every engine on fixed
// instances above the local view's size floor (permuted tori and a
// permuted mesh, which get a view, and a random graph, which does not) and
// holds each to byte-identical labels against the sequential engine run on
// the raw edge list, which never reads a view.
//
// Usage:
//
//	bccverify [-trials 200] [-maxn 300] [-seed 1] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"

	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bccverify: ")
	trials := flag.Int("trials", 200, "number of random instances")
	maxn := flag.Int("maxn", 300, "maximum vertex count")
	seed := flag.Int64("seed", 1, "base random seed")
	verbose := flag.Bool("v", false, "log every instance")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	algos := engine.Parallel()
	procs := []int{1, 2, 4}
	runs := len(algos) * len(procs)
	for trial := 0; trial < *trials; trial++ {
		n := 2 + rng.Intn(*maxn-1)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		el := gen.Random(n, m, rng.Int63())
		at := fmt.Sprintf("trial %d", trial)
		if *verbose {
			fmt.Printf("%s: n=%d m=%d\n", at, n, m)
		}
		want := core.Sequential(el)
		wantCuts := core.Articulation(el, want.EdgeComp)
		wantBridges := core.Bridges(el, want.EdgeComp, want.NumComp)
		// Every run of the trial shares one graph, so the CSR that the
		// first CSR-reading run converts serves all the others. The
		// (engine, p) pair that goes first rotates from trial to trial.
		g := graph.Wrap(el)
		for k := 0; k < runs; k++ {
			r := (trial + k) % runs
			a, p := algos[r/len(procs)], procs[r%len(procs)]
			got, err := a.Run(nil, nil, p, g)
			if err != nil {
				fail(at, el, a.Name, p, fmt.Sprintf("error: %v", err))
			}
			if got.NumComp != want.NumComp {
				fail(at, el, a.Name, p, fmt.Sprintf("NumComp %d != %d", got.NumComp, want.NumComp))
			}
			if m > 0 && !conncomp.SamePartition(got.EdgeComp, want.EdgeComp) {
				fail(at, el, a.Name, p, "edge partition differs")
			}
			gotCuts := core.Articulation(el, got.EdgeComp)
			if len(gotCuts) != len(wantCuts) {
				fail(at, el, a.Name, p, "articulation points differ")
			}
			gotBridges := core.Bridges(el, got.EdgeComp, got.NumComp)
			if len(gotBridges) != len(wantBridges) {
				fail(at, el, a.Name, p, "bridges differ")
			}
		}
		// The fast counter must agree too, on the same graph and CSR.
		cnt, err := core.CountBlocks(2, g)
		if err != nil || cnt != want.NumComp {
			fail(at, el, "count-blocks", 2, fmt.Sprintf("count=%d err=%v want=%d", cnt, err, want.NumComp))
		}
	}
	for _, in := range []struct {
		name string
		el   *graph.EdgeList
		view bool
	}{
		{"permuted torus 256x256", permuted(gen.Torus(256, 256), *seed), true},
		{"permuted torus 512x512", permuted(gen.Torus(512, 512), *seed), true},
		{"permuted mesh 300x300", permuted(gen.Mesh(300, 300), *seed), true},
		{"G(100000, 1000000)", gen.RandomConnected(100000, 1000000, *seed), false},
	} {
		want := core.Sequential(in.el)
		g := graph.Wrap(in.el)
		for _, a := range engine.All {
			for _, p := range procs {
				got, err := a.Run(nil, nil, p, g)
				if err != nil {
					fail(in.name, in.el, a.Name, p, "error: "+err.Error())
				}
				if got.NumComp != want.NumComp || !slices.Equal(got.EdgeComp, want.EdgeComp) {
					fail(in.name, in.el, a.Name, p, "labels differ from sequential on the raw edges")
				}
			}
		}
		if l, _, _, _ := g.Local(nil, 1); (l != g) != in.view {
			fail(in.name, in.el, "local view", 1, fmt.Sprintf("view %v, want %v", l != g, in.view))
		}
		if *verbose {
			fmt.Printf("%s: n=%d m=%d view=%v\n", in.name, in.el.N, len(in.el.Edges), in.view)
		}
	}
	fmt.Printf("OK: %d trials, %d algorithms x %d proc counts, all consistent; 4 instances above the view's floor, %d engines x %d proc counts, byte-identical\n",
		*trials, len(algos), len(procs), len(engine.All), len(procs))
}

// permuted relabels el's vertices by a random permutation drawn from seed,
// so that its ids carry no locality.
func permuted(el *graph.EdgeList, seed int64) *graph.EdgeList {
	perm := rand.New(rand.NewSource(seed)).Perm(int(el.N))
	for i, e := range el.Edges {
		el.Edges[i] = graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	return el
}

// fail dumps the offending instance to a file and aborts.
func fail(at string, g *graph.EdgeList, algo string, p int, msg string) {
	f, err := os.CreateTemp(".", "bccverify-failure-*.txt")
	if err == nil {
		_ = graph.Write(f, g)
		f.Close()
		log.Printf("instance written to %s", f.Name())
	}
	log.Fatalf("%s: %s (p=%d): %s", at, algo, p, msg)
}
