package core

// TVSMPConfig returns the Config preset for TV-SMP, the coarse-grained SMP
// emulation of the original Tarjan–Vishkin algorithm (§3.1). It follows
// TV's six steps literally:
//
//  1. Spanning-tree (unrooted): the edges that conncomp.Link's successful
//     links record, in place of the paper's Shiloach–Vishkin graft records.
//  2. Euler-tour via sample-sorted circular adjacency lists.
//  3. Root-tree / tree computations via Helman–JáJá list ranking on the
//     linked tour.
//  4. Low-high.
//  5. Label-edge (Alg. 1).
//  6. Connected-components of G' via conncomp.Link (one pass of concurrent
//     union-find in place of Shiloach–Vishkin's graft-and-shortcut rounds).
//
// It is the baseline whose parallel overheads the paper measures: the sort
// in step 2 and the list ranking in step 3 are the costs TV-opt removes.
// Callers add their own Cancel/Span before passing it to Custom.
func TVSMPConfig() Config {
	return Config{SpanningTree: SpanSV}
}

// TVOptConfig returns the Config preset for TV-opt, the optimized SMP
// adaptation (§3.2): the Spanning-tree and Root-tree steps are merged by the
// work-stealing traversal that computes a rooted tree directly, the Euler
// tour is built cache-friendly in DFS order, and the tree computations use
// prefix sums over arrays instead of list ranking. Steps 4–6 are shared with
// TV-SMP.
func TVOptConfig() Config {
	return Config{SpanningTree: SpanWorkStealing}
}

// rootsFromLabels extracts one representative vertex per component from
// min-id component labels (representatives satisfy Labels[v] == v).
func rootsFromLabels(labels []int32) []int32 {
	idx := make([]int32, 0, 16)
	for v, l := range labels {
		if l == int32(v) {
			idx = append(idx, int32(v))
		}
	}
	return idx
}
