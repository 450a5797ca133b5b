package treecomp

import (
	"fmt"

	"bicc/internal/faults"
	"bicc/internal/par"
	"bicc/internal/spantree"
)

// Step 3 of TV (root the tree, number it in preorder, size its subtrees)
// for every engine that holds a rooted spanning forest: TV-opt, TV-filter
// and FAST-BCC. Four sequential passes, none of which writes a tour:
//
//  1. Children lists: a counting sort of the vertices by parent, stable by
//     child id (the sibling order of a DFS-order tour).
//  2. Level order: the multi-vertex roots, then the children of each listed
//     vertex in turn, so every parent comes before its children.
//  3. Sizes: the level order in reverse, each vertex adding its size to its
//     parent's.
//  4. Preorder: the level order forward. A root takes the next free block
//     of its component's size; any other vertex takes its parent's next free
//     slot, which then advances by the vertex's size.
//
// The numbering equals what Compute derives from a DFS-order tour of the
// same forest, field for field. The passes stay sequential: the level order
// lets their random loads overlap, which a DFS over the same children lists
// does not, and the passes split across workers ran no faster at p=2.

// siteNumber fires between the kernel's passes, with the engine's canceler.
var siteNumber = faults.RegisterSite("treecomp.number", true)

// LevelOrder is a rooted forest after passes 1 and 2 of the numbering
// kernel; Number finishes it. TV's pipeline times the two halves as its
// Euler-tour and root steps.
type LevelOrder struct {
	parent []int32
	order  []int32 // level order; order[:multi] are the multi-vertex roots
	multi  int
	next   []int32 // the children sort's offsets, reused as next free slots
	size   []int32 // every entry 1 until Number sums it
	roots  []int32 // the multi-vertex roots, then the isolated ones
}

// poll is the kernel's check between passes: one fault-injection point and
// one look at the canceler.
func poll(cn *par.Canceler, pass int) error {
	faults.Inject(cn, siteNumber, 0, pass)
	return cn.Err()
}

// Order runs passes 1 and 2 over f. It fails when the level order misses a
// vertex (a parent cycle, or a self-parented vertex absent from f.Roots), or
// when cn trips; f.Roots must list each root once.
func Order(cn *par.Canceler, f *spantree.RootedForest) (*LevelOrder, error) {
	n := f.N
	parent := f.Parent
	// off[v] counts v's children, then (inclusive prefix) ends v's range;
	// the reverse scatter walks each cursor back to its range's start.
	off := make([]int32, n+1)
	size := make([]int32, n)
	for v := int32(0); v < n; v++ {
		pv := parent[v]
		if uint32(pv) >= uint32(n) {
			return nil, fmt.Errorf("treecomp: vertex %d has parent %d outside the forest", v, pv)
		}
		if pv != v {
			off[pv]++
		}
		size[v] = 1
	}
	for v := int32(1); v < n; v++ {
		off[v] += off[v-1]
	}
	if n > 0 {
		off[n] = off[n-1]
	}
	children := make([]int32, off[n])
	for v := n - 1; v >= 0; v-- {
		if pv := parent[v]; pv != v {
			off[pv]--
			children[off[pv]] = v
		}
	}
	if err := poll(cn, 0); err != nil {
		return nil, err
	}

	order := make([]int32, 0, n)
	roots := make([]int32, 0, len(f.Roots))
	for _, r := range f.Roots {
		if parent[r] != r {
			return nil, fmt.Errorf("treecomp: root %d has parent %d", r, parent[r])
		}
		if off[r] != off[r+1] {
			order = append(order, r)
			roots = append(roots, r)
		}
	}
	multi := len(order)
	for _, r := range f.Roots {
		if off[r] == off[r+1] {
			roots = append(roots, r)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		order = append(order, children[off[v]:off[v+1]]...)
	}
	if len(order)+len(roots)-multi != int(n) {
		return nil, fmt.Errorf("treecomp: level order lists %d of %d vertices (parent cycle or missing root)",
			len(order)+len(roots)-multi, n)
	}
	if err := poll(cn, 1); err != nil {
		return nil, err
	}
	return &LevelOrder{parent: parent, order: order, multi: multi, next: off, size: size, roots: roots}, nil
}

// Number runs passes 3 and 4 and returns the numbered forest. Its Parent is
// the forest's own array. A LevelOrder is numbered once.
func (l *LevelOrder) Number(cn *par.Canceler) (*TreeData, error) {
	parent, order, size, next := l.parent, l.order, l.size, l.next
	for i := len(order) - 1; i >= l.multi; i-- {
		v := order[i]
		size[parent[v]] += size[v]
	}
	if err := poll(cn, 2); err != nil {
		return nil, err
	}
	pre := make([]int32, len(parent))
	base := int32(0)
	for _, r := range order[:l.multi] {
		pre[r] = base
		next[r] = base + 1
		base += size[r]
	}
	for _, v := range order[l.multi:] {
		pv := parent[v]
		x := next[pv]
		pre[v] = x
		next[pv] = x + size[v]
		next[v] = x + 1
	}
	for _, r := range l.roots[l.multi:] {
		pre[r] = base
		base++
	}
	return &TreeData{N: int32(len(parent)), Parent: parent, Pre: pre, Size: size, Roots: l.roots}, nil
}
