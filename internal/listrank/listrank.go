// Package listrank implements parallel list ranking, the primitive that
// dominates the Euler-tour tree computations of TV-SMP. Two algorithms are
// provided:
//
//   - Wyllie's pointer jumping: O(n log n) work, O(log n) rounds, the
//     textbook PRAM algorithm. Every round chases pointers across the whole
//     array with no locality — exactly the cache behaviour the paper blames
//     for TV-SMP's tree-computation cost (§3.2, Fig. 4).
//   - Helman–JáJá sublist ranking: s random splitters cut the list into
//     sublists that are walked sequentially in parallel; the s-node sublist
//     chain is ranked on one processor and offsets are propagated back.
//     O(n) work and the practical SMP winner.
//
// Lists are successor arrays: next[i] is the successor of node i, or -1 for
// the tail. All primitives assume every node 0..n-1 lies on one list (the
// Euler tour of a tree is such a list once broken at the root).
package listrank

import (
	"fmt"
	"math/rand"

	"bicc/internal/faults"
	"bicc/internal/par"
)

// Fault-injection points: once per pointer-jumping round (Wyllie) and once
// per sublist-walk block (Helman–JáJá). No cancellation token reaches list
// ranking, so cancel-kind rules are inert here.
var (
	siteWyllie = faults.RegisterSite("listrank.wyllie", false)
	siteHJ     = faults.RegisterSite("listrank.hj", false)
)

// SuffixSum returns, for every node i, the sum of vals over the nodes from i
// to the tail (inclusive), by Wyllie pointer jumping with p workers. next is
// not modified.
func SuffixSum(p int, next []int32, vals []int32) []int32 {
	n := len(next)
	out := make([]int32, n)
	nxt := make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		copy(out[lo:hi], vals[lo:hi])
		copy(nxt[lo:hi], next[lo:hi])
	})
	scratchV := make([]int32, n)
	scratchN := make([]int32, n)
	for round := 0; ; round++ {
		faults.Inject(nil, siteWyllie, 0, round)
		done := par.CountTrue(p, n, func(i int) bool { return nxt[i] == -1 })
		if done == n {
			break
		}
		// Jump: out[i] += out[nxt[i]]; nxt[i] = nxt[nxt[i]]. Double-buffered
		// so reads see the previous round consistently (EREW-style).
		par.For(p, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if j := nxt[i]; j != -1 {
					scratchV[i] = out[i] + out[j]
					scratchN[i] = nxt[j]
				} else {
					scratchV[i] = out[i]
					scratchN[i] = -1
				}
			}
		})
		out, scratchV = scratchV, out
		nxt, scratchN = scratchN, nxt
	}
	return out
}

// Ranks returns the 0-based position of every node from the given head
// using Wyllie pointer jumping: ranks[head] = 0 and ranks[tail] = n-1.
func Ranks(p int, next []int32, head int32) []int32 {
	n := len(next)
	if n == 0 {
		return nil
	}
	ones := make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ones[i] = 1
		}
	})
	// dist-to-tail (counting self) = suffix sum of ones; position from head
	// = dist(head) - dist(i).
	dist := SuffixSum(p, next, ones)
	dh := dist[head]
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = dh - dist[i]
		}
	})
	return dist
}

// RanksHJ returns the same positions as Ranks using the Helman–JáJá sublist
// algorithm. It verifies full coverage and returns an error if next does not
// describe a single list over all n nodes reachable from head.
func RanksHJ(p int, next []int32, head int32) ([]int32, error) {
	n := len(next)
	if n == 0 {
		return nil, nil
	}
	p = par.Procs(p)
	s := p * 8
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	// mark[i] = sublist id owning node i as its head, or -1.
	mark := make([]int32, n)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mark[i] = -1
		}
	})
	heads := make([]int32, 0, s)
	mark[head] = 0
	heads = append(heads, head)
	rng := rand.New(rand.NewSource(int64(n)*1315423911 + 7))
	for len(heads) < s {
		v := int32(rng.Intn(n))
		if mark[v] == -1 {
			mark[v] = int32(len(heads))
			heads = append(heads, v)
		}
	}
	s = len(heads)
	// Walk each sublist sequentially: local ranks plus (successor sublist,
	// length) per sublist.
	local := make([]int32, n)
	succ := make([]int32, s)   // following sublist id, or -1 at list end
	length := make([]int32, s) // nodes in this sublist
	par.For(p, s, func(lo, hi int) {
		faults.Inject(nil, siteHJ, 0, lo)
		for sl := lo; sl < hi; sl++ {
			v := heads[sl]
			r := int32(0)
			for {
				local[v] = r
				r++
				nv := next[v]
				if nv == -1 {
					succ[sl] = -1
					break
				}
				if mark[nv] != -1 {
					succ[sl] = mark[nv]
					break
				}
				v = nv
			}
			length[sl] = r
		}
	})
	// Rank the sublist chain sequentially from the head's sublist.
	offset := make([]int32, s)
	visited := 0
	acc := int32(0)
	for sl := mark[head]; sl != -1; sl = succ[sl] {
		if visited >= s {
			return nil, fmt.Errorf("listrank: sublist chain has a cycle")
		}
		visited++
		offset[sl] = acc
		acc += length[sl]
	}
	if int(acc) != n || visited != s {
		return nil, fmt.Errorf("listrank: list from head covers %d of %d nodes (%d of %d sublists)", acc, n, visited, s)
	}
	// Final ranks: redo the walks adding offsets (second pass keeps the
	// memory footprint at one extra array, as in Helman–JáJá).
	ranks := local
	par.For(p, s, func(lo, hi int) {
		for sl := lo; sl < hi; sl++ {
			off := offset[sl]
			if off == 0 {
				continue
			}
			v := heads[sl]
			for {
				ranks[v] += off
				nv := next[v]
				if nv == -1 || mark[nv] != -1 {
					break
				}
				v = nv
			}
		}
	})
	return ranks, nil
}
