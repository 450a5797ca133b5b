// Command bccgen generates benchmark graph instances in the textual
// edge-list format on stdout.
//
// Usage:
//
//	bccgen -family random -n 1000000 -m 4000000 [-seed 1] [-connected]
//	bccgen -family mesh -rows 1000 -cols 1000
//	bccgen -family chain -n 100000
//	bccgen -family dense -n 2000 -frac 0.7 [-seed 1]
package main

import (
	"bufio"
	"flag"
	"log"
	"os"

	"bicc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bccgen: ")
	family := flag.String("family", "random", "graph family: random, mesh, torus, chain, dense")
	n := flag.Int("n", 1000, "vertices (random, chain, dense)")
	m := flag.Int("m", 4000, "edges (random)")
	rows := flag.Int("rows", 100, "rows (mesh, torus)")
	cols := flag.Int("cols", 100, "columns (mesh, torus)")
	frac := flag.Float64("frac", 0.7, "edge fraction (dense)")
	seed := flag.Int64("seed", 1, "random seed")
	connected := flag.Bool("connected", true, "force connectivity (random)")
	format := flag.String("format", "text", "output format: text, dimacs, binary")
	flag.Parse()

	var (
		g   *bicc.Graph
		err error
	)
	switch *family {
	case "random":
		if *connected {
			g, err = bicc.RandomConnectedGraph(*n, *m, *seed)
		} else {
			g, err = bicc.RandomGraph(*n, *m, *seed)
		}
	case "mesh":
		g, err = bicc.MeshGraph(*rows, *cols)
	case "torus":
		g, err = bicc.TorusGraph(*rows, *cols)
	case "chain":
		g, err = bicc.ChainGraph(*n)
	case "dense":
		g, err = bicc.DenseGraph(*n, *frac, *seed)
	default:
		log.Fatalf("unknown family %q", *family)
	}
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch *format {
	case "text":
		err = bicc.WriteGraph(w, g)
	case "dimacs":
		err = bicc.WriteGraphDIMACS(w, g)
	case "binary":
		err = bicc.WriteGraphBinary(w, g)
	default:
		log.Fatalf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}
