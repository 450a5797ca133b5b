package bicc

import "fmt"

// ReconstructResult rebuilds a Result from a persisted decomposition: the
// graph it was computed on, the algorithm that produced it, and the
// per-edge block labels. It exists for durability layers that store
// decompositions and need a Result back after a restart — in particular so
// a recovered result can be re-checked with Verify before it is served
// again. Labels are validated for range and density; Verify performs the
// full structural check.
func ReconstructResult(g *Graph, algo Algorithm, edgeComponent []int32) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(edgeComponent) != g.NumEdges() {
		return nil, fmt.Errorf("bicc: ReconstructResult: %d edge labels for %d edges",
			len(edgeComponent), g.NumEdges())
	}
	numComponents := 0
	for i, c := range edgeComponent {
		if c < 0 {
			return nil, fmt.Errorf("bicc: ReconstructResult: edge %d has negative block id %d", i, c)
		}
		if int(c)+1 > numComponents {
			numComponents = int(c) + 1
		}
	}
	return &Result{
		NumComponents: numComponents,
		EdgeComponent: append([]int32(nil), edgeComponent...),
		Algorithm:     algo,
		g:             g.gr.EdgeList,
	}, nil
}
