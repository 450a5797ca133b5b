// Edge filtering on denser graphs — a live demonstration of the paper's §4
// observation: the denser the graph, the more nontree edges are
// non-essential for biconnectivity, and the more TV-filter wins by running
// Tarjan–Vishkin on at most 2(n-1) edges instead of m.
//
// The program sweeps edge density on a fixed vertex count, times TV-opt and
// TV-filter on each instance, and prints the paper's predicted crossover:
// filtering costs a little at extreme sparsity and pays off increasingly
// with density.
//
//	run: go run ./examples/densefilter
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"bicc"
)

func timeIt(g *bicc.Graph, algo bicc.Algorithm, procs int) (time.Duration, *bicc.Result) {
	// Median of 3 runs.
	var best time.Duration
	var res *bicc.Result
	times := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: procs})
		if err != nil {
			log.Fatal(err)
		}
		times = append(times, time.Since(start))
		res = r
	}
	best = times[0]
	for _, t := range times[1:] {
		if t < best {
			best = t
		}
	}
	return best, res
}

func main() {
	const n = 50_000
	p := runtime.GOMAXPROCS(0)
	fmt.Printf("n=%d vertices, %d workers; sweeping density (paper §4)\n\n", n, p)
	fmt.Printf("%8s %10s %12v %12v %8s %14s\n",
		"m/n", "m", bicc.TVOpt, bicc.TVFilter, "ratio", "edges filtered")
	for _, mult := range []int{1, 2, 4, 8, 12, 16} {
		m := mult * n
		g, err := bicc.RandomConnectedGraph(n, m, int64(mult))
		if err != nil {
			log.Fatal(err)
		}
		tOpt, rOpt := timeIt(g, bicc.TVOpt, p)
		tFil, rFil := timeIt(g, bicc.TVFilter, p)
		if rOpt.NumComponents != rFil.NumComponents {
			log.Fatalf("m=%d: algorithms disagree (%d vs %d components)",
				m, rOpt.NumComponents, rFil.NumComponents)
		}
		// The filter keeps at most 2(n-1) edges.
		filtered := m - 2*(n-1)
		if filtered < 0 {
			filtered = 0
		}
		fmt.Printf("%8d %10d %12v %12v %8.2f %14d\n",
			mult, m,
			tOpt.Round(time.Microsecond), tFil.Round(time.Microsecond),
			float64(tOpt)/float64(tFil), filtered)
	}
	fmt.Println("\nratio > 1 means TV-filter is faster; the paper reports ~2x at m = n log n.")
}
