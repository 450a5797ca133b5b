package core

import "bicc/internal/graph"

// CountBlocks returns the exact number of biconnected components, computed
// with the TV-filter pipeline (the block labels of the filtered edges never
// change the count, so step 4 of Alg. 2 is skipped).
func CountBlocks(p int, g *graph.Graph) (int, error) {
	res, err := Custom(p, g, TVFilterConfig())
	if err != nil {
		return 0, err
	}
	return res.NumComp, nil
}
