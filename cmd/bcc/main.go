// Command bcc computes the biconnected components of a graph read from a
// file (or stdin) in the textual edge-list format and reports the block
// decomposition, articulation points, and bridges.
//
// Usage:
//
//	bcc [-algo auto|sequential|tv-smp|tv-opt|tv-filter|fast-bcc] [-p procs]
//	    [-format text|dimacs|binary] [-components] [-timing] [graphfile]
//
// -timing prints the read, then the engine's steps. The read parses the
// graph, checks it and builds its CSR (the paper's representation
// conversion) at GOMAXPROCS workers whatever -p says, so the engine's
// steps have no to-csr.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"bicc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bcc: ")
	names := []string{bicc.Auto.String()}
	for _, a := range bicc.Algorithms() {
		names = append(names, a.String())
	}
	algoName := flag.String("algo", bicc.Auto.String(), "algorithm: "+strings.Join(names, ", "))
	procs := flag.Int("p", 0, "worker count (0 = GOMAXPROCS)")
	format := flag.String("format", "text", "input format: text, dimacs, binary")
	showComps := flag.Bool("components", false, "print every block's edge list")
	showTiming := flag.Bool("timing", false, "print the read (parse, check, to-csr) and the per-step timing breakdown")
	showStats := flag.Bool("stats", false, "print graph statistics (degrees, connectivity, diameter bound)")
	flag.Parse()

	algo, err := bicc.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatal(err)
	}
	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	start := time.Now()
	var g *bicc.Graph
	switch *format {
	case "text":
		g, err = bicc.ReadGraph(in)
	case "dimacs":
		g, err = bicc.ReadGraphDIMACS(in)
	case "binary":
		g, err = bicc.ReadGraphBinary(in)
	default:
		log.Fatalf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	read := time.Since(start)
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: algo, Procs: *procs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if *showStats {
		st := bicc.Analyze(g, *procs)
		fmt.Printf("degrees: min=%d max=%d mean=%.2f isolated=%d\n",
			st.MinDegree, st.MaxDegree, st.MeanDeg, st.Isolated)
		fmt.Printf("connected: %v, diameter >= %d\n", st.Connected, st.DiameterLB)
	}
	fmt.Printf("algorithm: %v\n", res.Algorithm)
	fmt.Printf("biconnected components: %d\n", res.NumComponents)
	cuts := res.ArticulationPoints()
	fmt.Printf("articulation points: %d", len(cuts))
	if len(cuts) > 0 && len(cuts) <= 32 {
		fmt.Printf(" %v", cuts)
	}
	fmt.Println()
	bridges := res.Bridges()
	fmt.Printf("bridges: %d", len(bridges))
	if len(bridges) > 0 && len(bridges) <= 32 {
		fmt.Printf(" %v", bridges)
	}
	fmt.Println()
	if *showComps {
		edges := g.Edges()
		for k, comp := range res.Components() {
			fmt.Printf("block %d (%d edges):", k, len(comp))
			for _, i := range comp {
				fmt.Printf(" (%d,%d)", edges[i].U, edges[i].V)
			}
			fmt.Println()
		}
	}
	if *showTiming {
		fmt.Printf("%-22s %v\n", "read", read.Round(time.Microsecond))
		for _, ph := range res.Phases {
			fmt.Printf("%-22s %v\n", ph.Name, ph.Duration.Round(time.Microsecond))
		}
	}
}
