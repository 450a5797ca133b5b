package bicc

import (
	"bicc/internal/graph"
	"bicc/internal/par"
)

// Stats summarizes a graph's structure. Diameter matters to TV-filter: the
// paper's §4 bound is O(d + log n) time, with the BFS tree paying one
// synchronization round per level.
type Stats struct {
	Vertices  int
	Edges     int
	MinDegree int
	MaxDegree int
	MeanDeg   float64
	Isolated  int
	Connected bool
	// DiameterLB is the two-sweep BFS lower bound on the diameter (exact
	// on trees, tight in practice).
	DiameterLB int
}

// Analyze computes summary statistics with the given worker count
// (0 = GOMAXPROCS). Its BFS runs read the graph's CSR.
func Analyze(g *Graph, procs int) Stats {
	p := par.Procs(procs)
	c, _ := g.gr.CSR(p)
	_, ds := graph.Degrees(p, g.gr.EdgeList)
	st := Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		MinDegree: int(ds.Min),
		MaxDegree: int(ds.Max),
		MeanDeg:   ds.Mean,
		Isolated:  ds.Isolated,
		Connected: graph.IsConnected(c),
	}
	if g.NumVertices() > 0 {
		st.DiameterLB = int(graph.DiameterTwoSweep(c, 0))
	}
	return st
}

// Diameter computes the exact diameter (one BFS per vertex — use on
// analysis-sized graphs; Analyze's two-sweep bound scales to paper-sized
// instances).
func Diameter(g *Graph, procs int) int {
	p := par.Procs(procs)
	c, _ := g.gr.CSR(p)
	return int(graph.Diameter(p, c))
}
