package core

// TVFilterConfig returns the Config preset for TV-filter, the paper's new
// algorithm (§4, Alg. 2): filter out nontree edges that are non-essential
// for biconnectivity before running TV.
//
//  1. Compute a breadth-first-search tree T of G (the BFS property is what
//     makes the filtering correct — Lemma 1 and Theorem 2).
//  2. Compute a spanning forest F of G − T (NontreeForest: conncomp.Link
//     over G's own edges under the nontree mask).
//  3. Run the TV machinery on T ∪ F, a graph with at most 2(n−1) edges:
//     low-high seeds from F's edges alone, and Label-edge's mask over G
//     keeps only T's condition-3 edges and F.
//  4. Every filtered edge e = (u,v) in G − (T ∪ F) with pre(v) < pre(u)
//     belongs to the block of the tree edge (u, p(u)) by condition 1. The
//     label pass that ends step 3 reads condition 1 for every nontree edge
//     of G, so it labels the filtered edges with the rest.
//
// Asymptotically nothing improves, but step 2 discards at least
// max(m − 2(n−1), 0) edges, which shrinks the Low-high, Label-edge and
// Connected-components steps — the Fig. 3/4 win.
func TVFilterConfig() Config {
	return Config{SpanningTree: SpanBFS, Filter: true}
}
