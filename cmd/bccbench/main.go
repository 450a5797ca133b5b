// Command bccbench regenerates the paper's evaluation figures for every
// engine in the engine table on random graphs of several edge densities.
//
// -fig 3 (the default) is Figure 3: execution time and speedup over the
// sequential baseline, swept over processor counts up to -maxprocs.
//
// -fig 4 is Figure 4: the per-step execution-time breakdown (Spanning-tree,
// Euler-tour, root, Low-high, Label-edge, Connected-components, Filtering)
// of every parallel engine at -maxprocs workers. All four run one
// pipeline; only TV-filter records Filtering, and the rooted trees'
// Euler-tour column times their level order, not a tour.
//
// The paper's instances are 1M-vertex graphs with 4M, 10M and 20M (n log n)
// edges on a 12-processor Sun E4500; -scale shrinks the instances
// proportionally for quick runs.
//
// Usage:
//
//	bccbench [-fig 3|4] [-scale 0.1] [-maxprocs N] [-reps 3] [-csv file]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"bicc/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bccbench: ")
	fig := flag.Int("fig", 3, "paper figure to regenerate: 3 (time and speedup) or 4 (per-step breakdown)")
	scale := flag.Float64("scale", 0.1, "instance scale relative to the paper's n=1M")
	maxprocs := flag.Int("maxprocs", runtime.GOMAXPROCS(0), "largest worker count in the sweep, and Fig. 4's worker count")
	reps := flag.Int("reps", 3, "repetitions per configuration (median reported)")
	csvPath := flag.String("csv", "", "also write measurements as CSV to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	if *fig != 3 && *fig != 4 {
		log.Fatalf("-fig must be 3 or 4, not %d", *fig)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	instances := bench.PaperInstances(*scale)
	var (
		ms       []bench.Measurement
		err      error
		writeCSV func(io.Writer, []bench.Measurement) error
	)
	if *fig == 3 {
		procs := bench.ProcsSweep(*maxprocs)
		fmt.Printf("# paper: Cong & Bader, IPPS 2005, Fig. 3 (Sun E4500, 12 procs, n=1M)\n")
		fmt.Printf("# here: scale=%.3g, GOMAXPROCS=%d, procs sweep %v, reps=%d\n",
			*scale, runtime.GOMAXPROCS(0), procs, *reps)
		ms, err = bench.Fig3(os.Stdout, instances, procs, *reps)
		writeCSV = bench.Fig3CSV
	} else {
		fmt.Printf("# paper: Cong & Bader, IPPS 2005, Fig. 4 (breakdown at 12 procs, n=1M)\n")
		fmt.Printf("# here: scale=%.3g, p=%d, reps=%d\n", *scale, *maxprocs, *reps)
		ms, err = bench.Fig4(os.Stdout, instances, *maxprocs, *reps)
		writeCSV = bench.Fig4CSV
	}
	if err != nil {
		log.Fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := writeCSV(f, ms); err != nil {
			log.Fatal(err)
		}
	}
}
