package core

import "bicc/internal/graph"

// CountBlocks returns the exact number of biconnected components, computed
// with the TV-filter pipeline. A filtered edge never makes a block of its
// own, so the count is T ∪ F's; the run labels every edge anyway, in the
// label pass that reads condition 1.
func CountBlocks(p int, g *graph.Graph) (int, error) {
	res, err := Custom(p, g, TVFilterConfig())
	if err != nil {
		return 0, err
	}
	return res.NumComp, nil
}
