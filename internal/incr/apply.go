package incr

import (
	"context"
	"fmt"

	"bicc"
	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/faults"
	"bicc/internal/graph"
	"bicc/internal/par"
)

// Recompute runs an engine over a graph and returns its decomposition. Apply
// calls it for the dirty region (ModeRebuild) or the whole final graph
// (ModeFull); the service wires it to the same supervised engine trunk that
// serves queries, so breakers and fallbacks apply to incremental work too.
type Recompute func(ctx context.Context, g *bicc.Graph) (*bicc.Result, error)

// Batch is a delta sequence that Prepare validated against a State, with
// the graph it leaves behind. Callers persist mutations (WAL append with
// the post-state fingerprint) between Prepare and Apply. A Batch is valid
// only until its State next commits.
type Batch struct {
	g       *bicc.Graph
	deltas  int
	dels    []int        // positions in the State's edge list, ascending
	inserts []graph.Edge // the tail of g's edges: the inserts in batch order

	state   *State
	commits uint64
}

// Prepare applies deltas to the state's graph with bicc.ApplyDeltas, which
// rejects a bad delta with a *graph.DeltaError. It mutates nothing. A
// batch that passes Prepare can only fail Apply for runtime reasons
// (faults, cancellation, engine errors), never validation.
func (s *State) Prepare(deltas []graph.Delta) (*Batch, error) {
	g, dels, err := bicc.ApplyDeltas(s.g, deltas)
	if err != nil {
		return nil, err
	}
	inserts := g.Edges()[s.g.NumEdges()-len(dels):]
	return &Batch{g: g, deltas: len(deltas), dels: dels, inserts: inserts,
		state: s, commits: s.commits}, nil
}

// Graph returns the graph the batch leaves: surviving edges in their
// current order, then the inserts in submission order. This is the edge
// order a from-scratch upload of the final graph must use for answers to
// compare byte-for-byte. Apply adopts it as the State's graph, and a full
// recompute runs on it.
func (b *Batch) Graph() *bicc.Graph { return b.g }

// blockSet is a set of block ids, an array over the id range.
type blockSet struct {
	in []bool
	n  int
}

func (d *blockSet) add(b int32) {
	if !d.in[b] {
		d.in[b] = true
		d.n++
	}
}

// Apply commits a batch from Prepare. It classifies every delta against the
// current block-cut structure, absorbs intra-block inserts in place, and
// recomputes the union of the dirty blocks (or, past the size threshold,
// the whole graph, b.Graph()) via run. Its map work is O(batch + region):
// the dirty set is an array by block id. The block index, which doubles as
// the block-cut forest, is rebuilt by array passes, without a sort.
// On error the State is unchanged — every in-place update comes after the
// engine run, the last step that can fail — so the caller can degrade to a
// full recompute of b.Graph() and rebuild a fresh State.
func (s *State) Apply(ctx context.Context, b *Batch, cfg Config, run Recompute) (st *ApplyStats, err error) {
	defer func() {
		if v := recover(); v != nil {
			st, err = nil, par.AsPanicError(-1, v)
		}
	}()
	if b.state != s || b.commits != s.commits {
		return nil, fmt.Errorf("incr: batch was prepared against another state")
	}
	cancel := &par.Canceler{}
	stop := cancel.Watch(ctx)
	defer stop()

	// Classification pass, one fault point per delta.
	for i := 0; i < b.deltas; i++ {
		faults.Inject(cancel, SiteApply, 0, i)
		if err := cancel.Err(); err != nil {
			return nil, err
		}
	}

	dirty := &blockSet{in: make([]bool, s.numComp)}
	for _, i := range b.dels {
		dirty.add(s.comp[i])
	}

	// Classify inserts: an intra-block insert is an absorb candidate; a
	// structural insert makes each endpoint that lives in some block a
	// terminal of the Steiner closure below. absorb[k] is the block insert k
	// is absorbed into, or -1.
	absorb := make([]int32, len(b.inserts))
	var termVerts []int32
	n := int32(s.N())
	for k, e := range b.inserts {
		sb := int32(-1)
		if e.U < n && e.V < n {
			sb = s.sharedBlock(e.U, e.V)
		}
		absorb[k] = sb
		if sb < 0 {
			for _, v := range [2]int32{e.U, e.V} {
				if v < n && len(s.BlocksOfVertex(v)) > 0 {
					termVerts = append(termVerts, v)
				}
			}
		}
	}

	// Steiner closure: every cycle through a new edge decomposes into new
	// edges and paths between terminals, and a path between two vertices
	// only crosses blocks on their block-cut tree path — so dirtying the
	// minimal subtrees spanning each component's terminals covers every
	// block a structural insert can merge.
	s.steinerClose(termVerts, dirty)

	// Absorb candidates whose shared block went dirty join the region: the
	// block's identity is being recomputed, so the new edge must be labeled
	// by the engine along with it. (No terminals needed: a cycle through an
	// intra-block edge that escapes its block must ride structural inserts,
	// whose terminals already dirty every block such a cycle can touch.)
	absorbed := 0
	structural := 0
	for k, a := range absorb {
		if a >= 0 && dirty.in[a] {
			absorb[k] = -1
		}
		if absorb[k] >= 0 {
			absorbed++
		} else {
			structural++
		}
	}

	stats := &ApplyStats{
		Deltas:      b.deltas,
		Inserts:     len(b.inserts),
		Deletes:     len(b.dels),
		Absorbed:    absorbed,
		DirtyBlocks: dirty.n,
	}

	// Pure absorb: nothing structural anywhere in the batch (so no deletes
	// either). No engine; the labels grow by the inserts' blocks and the
	// block index is kept (both endpoints were already in the target
	// block).
	if dirty.n == 0 && structural == 0 {
		s.commit(b, append(s.comp, absorb...), s.numComp)
		stats.Mode = ModeAbsorb
		stats.NumComponents = s.numComp
		return stats, nil
	}

	// Every deleted edge's block is dirty, so the region holds the dirty
	// blocks' edges but the deleted ones, plus the structural inserts.
	finalCount := b.g.NumEdges()
	regionEdges := structural - len(b.dels)
	for _, c := range s.comp {
		if dirty.in[c] {
			regionEdges++
		}
	}
	stats.RegionEdges = regionEdges
	if finalCount > 0 {
		stats.RegionRatio = float64(regionEdges) / float64(finalCount)
	}

	if stats.RegionRatio > cfg.threshold() {
		// The dirty region covers too much of the graph: locality
		// bookkeeping would cost more than it saves. Full engine run.
		if run == nil {
			return nil, fmt.Errorf("incr: full recompute needed but no engine provided")
		}
		res, err := run(ctx, b.g)
		if err != nil {
			return nil, err
		}
		comp := append([]int32(nil), res.EdgeComponent...)
		if len(comp) != b.g.NumEdges() {
			return nil, fmt.Errorf("incr: engine labeled %d of %d edges", len(comp), b.g.NumEdges())
		}
		s.commit(b, comp, conncomp.Normalize(comp))
		s.reindex()
		stats.Mode = ModeFull
		stats.Absorbed = 0
		stats.NumComponents = s.numComp
		return stats, nil
	}

	if run == nil {
		return nil, fmt.Errorf("incr: rebuild needed but no engine provided")
	}

	// Region assembly, one fault point per dirty block.
	for j := 0; j < dirty.n; j++ {
		faults.Inject(cancel, SiteRebuild, 0, j)
		if err := cancel.Err(); err != nil {
			return nil, err
		}
	}

	// In one pass over the final edges, src[i]: the label source of final
	// edge i, an old block id (>= 0, survives untouched) or -(r+1) for
	// region edge r, the final edge region[r]. The region is remapped to a
	// compact subgraph like any block.
	src := make([]int32, 0, finalCount)
	var region []int32
	toRegion := func() {
		region = append(region, int32(len(src)))
		src = append(src, -int32(len(region)))
	}
	dels := b.dels
	for i, c := range s.comp {
		if len(dels) > 0 && dels[0] == i {
			dels = dels[1:]
			continue
		}
		if dirty.in[c] {
			toRegion()
		} else {
			src = append(src, c)
		}
	}
	for _, a := range absorb {
		if a >= 0 {
			src = append(src, a)
		} else {
			toRegion()
		}
	}

	sub, _ := core.Subgraph(b.g.Edges(), region)
	rg, err := bicc.AdoptGraph(int(sub.N), sub.Edges)
	if err != nil {
		return nil, fmt.Errorf("incr: region subgraph: %w", err)
	}
	rres, err := run(ctx, rg)
	if err != nil {
		return nil, err
	}
	if len(rres.EdgeComponent) != len(region) {
		return nil, fmt.Errorf("incr: engine labeled %d of %d region edges",
			len(rres.EdgeComponent), len(region))
	}

	// Stitch: untouched blocks keep their identity, region edges take the
	// engine's labels shifted past the old id space, then the whole labeling
	// is re-densified into first-occurrence order — byte-identical to what
	// any engine emits for the final edge list.
	labels := make([]int32, finalCount)
	for i, sc := range src {
		if sc >= 0 {
			labels[i] = sc
		} else {
			labels[i] = int32(s.numComp) + rres.EdgeComponent[-sc-1]
		}
	}
	k := conncomp.Normalize(labels)
	s.commit(b, labels, k)
	s.reindex()
	stats.Mode = ModeRebuild
	stats.NumComponents = k
	return stats, nil
}

// commit installs the batch's edge list and labels. It is the only
// in-place write of Apply, so it runs after every step that can fail.
func (s *State) commit(b *Batch, comp []int32, numComp int) {
	s.g, s.comp, s.numComp = b.g, comp, numComp
	s.commits++
}

// steinerClose marks dirty every block on the minimal block-cut subtree
// spanning each component's terminal vertices. Tree nodes are blocks
// [0, numComp) and cut vertices, node numComp+v for vertex v.
func (s *State) steinerClose(termVerts []int32, dirty *blockSet) {
	if len(termVerts) < 2 {
		return
	}
	k := int32(s.numComp)
	isCut := s.idx.IsCut
	// A terminal vertex maps to its cut node, or to its only block.
	// Terminals are deduplicated by VERTEX, not by tree node: two distinct
	// terminal vertices attached to the same block mean a real path through
	// that block's edges, so the block must go dirty even though the tree
	// path between the two attachment nodes is trivial. (A single vertex
	// appearing as the endpoint of several structural inserts contributes
	// nothing by itself — a cycle can pass through the vertex without
	// touching any block's edges.)
	node := func(v int32) int32 {
		if isCut(v) {
			return k + v
		}
		return s.BlocksOfVertex(v)[0]
	}
	terms := make([]int32, 0, len(termVerts)) // one node per distinct terminal vertex
	seen := make(map[int32]bool, len(termVerts))
	for _, v := range termVerts {
		if !seen[v] {
			seen[v] = true
			terms = append(terms, node(v))
		}
	}

	numNodes := int(k) + s.N()
	compID := make([]int32, numNodes)
	parent := make([]int32, numNodes)
	for i := range compID {
		compID[i] = -1
	}
	// Early-stopping BFS over the block-cut forest: each search runs until
	// every terminal node anywhere has been visited, so a batch whose
	// terminals cluster in one region explores only the ball around them —
	// the forest outside the ball is never walked. Terminals a search can't
	// reach sit in other forest components and seed later searches.
	pending := make(map[int32]bool, len(terms))
	for _, t := range terms {
		pending[t] = true
	}
	var queue []int32
	visit := func(y, x int32, ci int) {
		if compID[y] == -1 {
			compID[y] = int32(ci)
			parent[y] = x
			delete(pending, y)
			queue = append(queue, y)
		}
	}
	for ci, t := range terms {
		if compID[t] != -1 {
			continue
		}
		// t is the root every other terminal in its component walks up to.
		compID[t] = int32(ci)
		parent[t] = -1
		delete(pending, t)
		queue = append(queue[:0], t)
		for len(queue) > 0 && len(pending) > 0 {
			x := queue[0]
			queue = queue[1:]
			if x < k { // a block: its cut vertices
				for _, v := range s.idx.VerticesOfBlock(x) {
					if isCut(v) {
						visit(k+v, x, ci)
					}
				}
			} else { // a cut vertex: its blocks
				for _, b := range s.BlocksOfVertex(x - k) {
					visit(b, x, ci)
				}
			}
		}
	}
	groups := make(map[int32][]int32)
	for _, t := range terms {
		groups[compID[t]] = append(groups[compID[t]], t)
	}
	marked := make([]bool, numNodes)
	for _, g := range groups {
		if len(g) < 2 {
			// One distinct terminal vertex in this component: no
			// terminal-to-terminal path exists, nothing merges here.
			continue
		}
		// g[0] initiated the BFS for this component (terminals are visited
		// in order), so every parent chain terminates at it.
		marked[g[0]] = true
		for _, t := range g[1:] {
			for x := t; x != -1 && !marked[x]; x = parent[x] {
				marked[x] = true
			}
		}
	}
	for id := int32(0); id < k; id++ {
		if marked[id] {
			dirty.add(id)
		}
	}
}
