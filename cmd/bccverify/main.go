// Command bccverify cross-validates every parallel engine in the engine
// table, plus TV-SMP with Wyllie list ranking (the ablation that isolates the
// tree-computation cost), against the sequential oracle on randomized
// instances — the repository's standing fuzz harness. It generates random
// graphs across a size/density grid, runs every engine at several worker
// counts on one shared graph per instance (so one run's CSR serves every
// other run), and reports the first divergence in block counts, edge
// partitions, articulation points, or bridges.
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

	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
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
	algos := append(engine.Parallel(), engine.Engine{Name: "tv-smp-wyllie", Parallel: true,
		Run: func(_ *par.Canceler, _ *obs.Span, p int, g *graph.Graph) (*core.Result, error) {
			return core.Custom(p, g, core.Config{SpanningTree: core.SpanSV, Ranker: core.RankWyllie})
		}})
	procs := []int{1, 2, 4}
	runs := len(algos) * len(procs)
	for trial := 0; trial < *trials; trial++ {
		n := 2 + rng.Intn(*maxn-1)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		el := gen.Random(n, m, rng.Int63())
		if *verbose {
			fmt.Printf("trial %d: n=%d m=%d\n", trial, n, m)
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
				fail(trial, el, a.Name, p, fmt.Sprintf("error: %v", err))
			}
			if got.NumComp != want.NumComp {
				fail(trial, el, a.Name, p, fmt.Sprintf("NumComp %d != %d", got.NumComp, want.NumComp))
			}
			if m > 0 && !conncomp.SamePartition(got.EdgeComp, want.EdgeComp) {
				fail(trial, el, a.Name, p, "edge partition differs")
			}
			gotCuts := core.Articulation(el, got.EdgeComp)
			if len(gotCuts) != len(wantCuts) {
				fail(trial, el, a.Name, p, "articulation points differ")
			}
			gotBridges := core.Bridges(el, got.EdgeComp, got.NumComp)
			if len(gotBridges) != len(wantBridges) {
				fail(trial, el, a.Name, p, "bridges differ")
			}
		}
		// The fast counter must agree too, on the same graph and CSR.
		cnt, err := core.CountBlocks(2, g)
		if err != nil || cnt != want.NumComp {
			fail(trial, el, "count-blocks", 2, fmt.Sprintf("count=%d err=%v want=%d", cnt, err, want.NumComp))
		}
	}
	fmt.Printf("OK: %d trials, %d algorithms x %d proc counts, all consistent\n", *trials, len(algos), len(procs))
}

// fail dumps the offending instance to a file and aborts.
func fail(trial int, g *graph.EdgeList, algo string, p int, msg string) {
	f, err := os.CreateTemp(".", "bccverify-failure-*.txt")
	if err == nil {
		_ = graph.Write(f, g)
		f.Close()
		log.Printf("instance written to %s", f.Name())
	}
	log.Fatalf("trial %d: %s (p=%d): %s", trial, algo, p, msg)
}
