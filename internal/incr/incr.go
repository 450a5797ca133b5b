// Package incr maintains a biconnected-components decomposition under
// batched edge insertions and deletions, recomputing as little as possible.
//
// A State holds the current edge list, the canonical per-edge block labels
// (first-occurrence dense numbering — exactly what every engine emits for
// the same edge list), and their block index (core.BlockIndex). Prepare
// validates a batch of deltas against it; Apply runs the batch through a
// planner that classifies each delta against the current block-cut
// structure:
//
//   - An insert whose endpoints already share a block cannot change any
//     articulation structure — two vertices of one block are already
//     biconnected, so the new edge joins that block and nothing else moves.
//     Such inserts are absorbed in place in O(1) with no engine run.
//   - Everything structural — deletes, cross-block and cross-component
//     inserts, edges to new vertices — marks blocks dirty. A delete dirties
//     exactly the block of the deleted edge (every cycle lies inside one
//     block, so no other block can change). Structural inserts make their
//     endpoints terminals, and the dirty set is closed over the Steiner
//     subtrees of the terminals in the block-cut forest: any cycle through
//     a new edge decomposes into new edges and paths between terminals, and
//     a path between two vertices only traverses blocks on their block-cut
//     tree path, so the closure provably contains every block a new edge
//     can merge. Absorb candidates whose shared block lands in the dirty
//     set are demoted to region edges.
//   - The union of the dirty blocks' surviving edges plus the structural
//     inserts is recomputed as one compact subgraph by a real engine and
//     stitched back into the labeling, which is then re-canonicalized so
//     the result is byte-identical to a from-scratch run on the final edge
//     list. When the region exceeds a size-ratio threshold of the final
//     graph, Apply degrades to a full engine run instead (the adaptive
//     fallback: locality bookkeeping is not worth it for global damage).
//
// Apply is atomic: it either commits the whole batch or returns an error
// leaving the State untouched, so a faulted incremental apply can always be
// retried as a full recompute. The incr.apply and incr.rebuild fault sites
// cover the classification loop and the per-dirty-block region assembly.
//
// Prepare is a thin call of graph.ApplyDeltas, the one function that turns
// an edge list and a batch into the post-batch edge list; WAL replay and
// the standby call it too, so all three apply a batch by the same rules.
// A commit's hash-map work is O(batch + region), and it sorts only the
// batch's deleted positions: the block index, which doubles as the
// block-cut forest, is rebuilt by counting sorts. What stays linear in the
// graph is array passes: the scan and copy that build the final edge list,
// the label stitch and the index rebuild.
package incr

import (
	"fmt"

	"bicc"
	"bicc/internal/conncomp"
	"bicc/internal/core"
	"bicc/internal/faults"
	"bicc/internal/graph"
)

// Fault sites. incr.apply fires once per delta during classification;
// incr.rebuild fires once per dirty block while the recompute region is
// assembled. Both are cancelable.
var (
	SiteApply   = faults.RegisterSite("incr.apply", true)
	SiteRebuild = faults.RegisterSite("incr.rebuild", true)
)

// Mode is the path a batch took through Apply.
type Mode uint8

const (
	// ModeAbsorb: every delta was an intra-block insert; no engine ran.
	ModeAbsorb Mode = iota
	// ModeRebuild: the union of the dirty blocks was recomputed and
	// stitched back; untouched blocks kept their labels.
	ModeRebuild
	// ModeFull: the dirty region exceeded the threshold (or an incremental
	// attempt faulted) and the whole final graph was recomputed.
	ModeFull
)

// String names the mode as exported in metrics.
func (m Mode) String() string {
	switch m {
	case ModeAbsorb:
		return "absorb"
	case ModeRebuild:
		return "rebuild"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DefaultThreshold is the region/final edge ratio above which Apply
// degrades to a full engine run.
const DefaultThreshold = 0.5

// Config tunes Apply.
type Config struct {
	// Threshold is the dirty-region size ratio (region edges over final
	// edges) above which Apply gives up on locality and recomputes the
	// whole graph. <= 0 means DefaultThreshold; >= 1 never degrades on
	// size.
	Threshold float64
}

func (c Config) threshold() float64 {
	if c.Threshold <= 0 {
		return DefaultThreshold
	}
	return c.Threshold
}

// ApplyStats describes what one committed batch did.
type ApplyStats struct {
	Deltas      int
	Inserts     int
	Deletes     int
	Absorbed    int     // inserts absorbed in place without an engine run
	DirtyBlocks int     // blocks invalidated by structural deltas
	RegionEdges int     // edges handed to the engine in ModeRebuild
	RegionRatio float64 // RegionEdges / final edge count
	Mode        Mode
	// NumComponents is the block count after the batch.
	NumComponents int
}

// State is a maintained decomposition. It is not safe for concurrent use;
// callers serialize Prepare and Apply against readers.
type State struct {
	g       *bicc.Graph
	comp    []int32
	numComp int
	// commits counts applied batches; a Batch is valid only for the count
	// it was prepared at.
	commits uint64

	// idx is the block index of g's edges and comp: the block-cut forest, so
	// steinerClose can BFS the ball around a batch's terminals without a
	// materialized forest. An absorb commit keeps it, since its vertex and
	// block lists cannot change; only its block→edge lists, which nothing
	// here reads, then miss the absorbed edges.
	idx *core.BlockIndex
}

// NewState captures a decomposition of g as incremental state. The State
// shares g, whose edge list nothing in incr writes to. The labels are
// re-canonicalized defensively (engines already emit first-occurrence
// numbering, but reconstructed results from older on-disk state may not).
func NewState(g *bicc.Graph, res *bicc.Result) (*State, error) {
	if g == nil || res == nil {
		return nil, fmt.Errorf("incr: nil graph or result")
	}
	edges := g.Edges()
	if len(res.EdgeComponent) != len(edges) {
		return nil, fmt.Errorf("incr: result labels %d edges, graph has %d",
			len(res.EdgeComponent), len(edges))
	}
	comp := append([]int32(nil), res.EdgeComponent...)
	numComp := conncomp.Normalize(comp)
	s := &State{g: g, comp: comp, numComp: numComp}
	s.reindex()
	return s, nil
}

// reindex rebuilds the block index from the current edges and labels.
func (s *State) reindex() {
	s.idx = core.NewBlockIndex(int32(s.N()), s.Edges(), s.comp, s.numComp)
}

// N returns the current vertex count.
func (s *State) N() int { return s.g.NumVertices() }

// NumEdges returns the current edge count.
func (s *State) NumEdges() int { return s.g.NumEdges() }

// NumComponents returns the current block count.
func (s *State) NumComponents() int { return s.numComp }

// Edges returns the current edge list. The slice is shared; callers must
// not modify it.
func (s *State) Edges() []graph.Edge { return s.g.Edges() }

// Graph returns the graph the State describes: NewState's, then each
// applied batch's.
func (s *State) Graph() *bicc.Graph { return s.g }

// Labels returns a copy of the canonical per-edge block labels.
func (s *State) Labels() []int32 { return append([]int32(nil), s.comp...) }

// BlocksOfVertex returns the ids of the blocks containing v, ascending;
// nil for isolated or out-of-range vertices. The slice aliases the index.
func (s *State) BlocksOfVertex(v int32) []int32 { return s.idx.BlocksOfVertex(v) }

// sharedBlock returns the block containing both u and v, or -1. Two
// vertices share at most one block (two blocks intersect in at most one
// vertex), so the first intersection is the only one.
func (s *State) sharedBlock(u, v int32) int32 {
	a, b := s.BlocksOfVertex(u), s.BlocksOfVertex(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i]
		}
	}
	return -1
}
