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
//  5. Label-edge (Alg. 1), written as a mask over G's own edges: G′'s
//     condition-2 and condition-3 pairs are edges of G (auxMask).
//  6. Connected-components of G′ via conncomp.Link over the masked edges of
//     G (one pass of concurrent union-find in place of Shiloach–Vishkin's
//     graft-and-shortcut rounds), then one label pass (edgeBlocks) that
//     reads condition 1.
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

// FastBCCConfig returns the Config preset for FAST-BCC, the skeleton-based
// algorithm of Dong, Wang, Gu & Sun ("Provably Fast and Space-Efficient
// Parallel Biconnectivity", arXiv:2301.01356): TV's pipeline on a BFS
// spanning forest of all of G, with no filter.
//
// Its skeleton is Label-edge's mask on that tree. By Lemma 1 no nontree
// edge of a BFS tree joins a vertex to a proper ancestor, so every nontree
// edge joins unrelated vertices: it is a condition-2 pair, kept in the
// skeleton untested. A tree edge (u, p(u)) is kept when it meets
// condition 3, that is when some nontree edge leaves subtree(u) outside
// subtree(p(u)); the others are the paper's fences, whose blocks close
// inside subtree(p(u)), bridges among them. The components of the kept
// edges, read at each tree edge's child, are the blocks. The work is
// O(n + m) with one parallel round per BFS level, and the only staging is
// the mask's byte per edge.
func FastBCCConfig() Config {
	return Config{SpanningTree: SpanBFS}
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
