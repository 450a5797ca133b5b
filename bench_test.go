// Benchmarks regenerating the paper's evaluation (§5) with testing.B.
// One benchmark family per figure, plus ablations for the design choices
// DESIGN.md calls out. The paper's full-size instances (n=1M) are scaled to
// benchmark-friendly sizes here; cmd/bccbench runs the same harness at
// arbitrary scales.
package bicc

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bicc/internal/bench"
	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/psort"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// benchN is the vertex count for benchmark instances (the paper uses 1M;
// this default keeps `go test -bench .` tractable — scale with
// cmd/bccbench for larger runs).
const benchN = 30_000

// densities mirrors the paper's Fig. 3/4 x-axis: m = 4n, 10n, n·log n.
func densities() map[string]int {
	return map[string]int{
		"m=4n":    4 * benchN,
		"m=10n":   10 * benchN,
		"m=nlogn": int(float64(benchN) * math.Log2(benchN)),
	}
}

func benchGraph(m int) *graph.EdgeList {
	return gen.RandomConnected(benchN, m, 20050404)
}

// BenchmarkFig3 regenerates Figure 3: each (density, algorithm, procs)
// cell is one sub-benchmark; relative ns/op across algorithms at fixed
// density reproduces the paper's curves.
func BenchmarkFig3(b *testing.B) {
	procs := bench.ProcsSweep(runtime.GOMAXPROCS(0))
	for density, m := range densities() {
		g := benchGraph(m)
		b.Run(fmt.Sprintf("%s/sequential/p=1", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Sequential(g)
			}
		})
		for _, algo := range engine.Parallel() {
			for _, p := range procs {
				b.Run(fmt.Sprintf("%s/%s/p=%d", density, algo.Name, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := algo.Run(nil, nil, p, graph.Wrap(g)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: one sub-benchmark per (density,
// algorithm) at max procs, reporting each step's share as custom metrics
// (<phase>-ns/op).
func BenchmarkFig4(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	for density, m := range densities() {
		g := benchGraph(m)
		for _, algo := range engine.Parallel() {
			b.Run(fmt.Sprintf("%s/%s", density, algo.Name), func(b *testing.B) {
				totals := map[string]float64{}
				for i := 0; i < b.N; i++ {
					res, err := algo.Run(nil, nil, p, graph.Wrap(g))
					if err != nil {
						b.Fatal(err)
					}
					for _, name := range core.PhaseOrder {
						totals[name] += float64(res.PhaseDuration(name).Nanoseconds())
					}
				}
				for _, name := range core.PhaseOrder {
					if totals[name] > 0 {
						b.ReportMetric(totals[name]/float64(b.N), name+"-ns/op")
					}
				}
			})
		}
	}
}

// BenchmarkAblationTreeComp isolates the paper's §3.2 claim: tree
// computations by list ranking (Wyllie, Helman–JáJá) versus a rooted tree's
// numbering without list ranking, here the level-order kernel the rooted
// engines run (treecomp.Order and LevelOrder.Number on a work-stealing tree).
func BenchmarkAblationTreeComp(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := benchGraph(4 * benchN)
	f := spantree.SV(p, g.N, g.Edges)
	roots := []int32{0}
	tour, err := eulertour.FromForest(p, g.N, g.Edges, f.TreeEdges, roots)
	if err != nil {
		b.Fatal(err)
	}
	c := graph.ToCSR(p, g)
	rooted := spantree.WorkStealing(p, c)
	b.Run("listrank-wyllie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, err := eulertour.Sequence(p, tour, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := treecomp.Compute(p, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("listrank-helman-jaja", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, err := eulertour.Sequence(p, tour, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := treecomp.Compute(p, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("level-order-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := treecomp.Order(nil, rooted)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.Number(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEulerTour isolates the representation-conversion cost:
// the sort-based circular-adjacency construction versus the DFS-order
// construction (DFSOrderParallel, arc positions from subtree sizes).
func BenchmarkAblationEulerTour(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := benchGraph(4 * benchN)
	f := spantree.SV(p, g.N, g.Edges)
	c := graph.ToCSR(p, g)
	rooted := spantree.WorkStealing(p, c)
	b.Run("sort-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eulertour.FromForest(p, g.N, g.Edges, f.TreeEdges, []int32{0}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dfs-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eulertour.DFSOrderParallel(p, g.Edges, rooted)
		}
	})
}

// BenchmarkAblationSpanningTree compares the three spanning-tree
// algorithms (§3.2): the union-find spanning forest of spantree.SV
// (unrooted), work-stealing traversal (rooted), and parallel BFS (rooted,
// with levels).
func BenchmarkAblationSpanningTree(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := benchGraph(4 * benchN)
	c := graph.ToCSR(p, g)
	b.Run("shiloach-vishkin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spantree.SV(p, g.N, g.Edges)
		}
	})
	b.Run("work-stealing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spantree.WorkStealing(p, c)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spantree.BFS(p, c)
		}
	})
}

// BenchmarkAblationFilter measures the §4 trade: filtering overhead versus
// the work it saves, across densities. The paper predicts TV-filter loses
// at extreme sparsity and wins increasingly with density.
func BenchmarkAblationFilter(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	for _, mult := range []int{1, 2, 4, 10, 15} {
		g := gen.RandomConnected(benchN, mult*benchN, 99)
		b.Run(fmt.Sprintf("m=%dn/tv-opt", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Custom(p, graph.Wrap(g), core.TVOptConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("m=%dn/tv-filter", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Custom(p, graph.Wrap(g), core.TVFilterConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSort times the TV-SMP Euler tour's sorting substrate,
// sample sort, on the 2m arcs of a 4n-edge graph.
func BenchmarkAblationSort(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := benchGraph(4 * benchN)
	arcs := make([]psort.Pair, 0, 2*len(g.Edges))
	for i, e := range g.Edges {
		arcs = append(arcs,
			psort.Pair{Key: uint64(uint32(e.U))<<32 | uint64(uint32(e.V)), Val: int32(2 * i)},
			psort.Pair{Key: uint64(uint32(e.V))<<32 | uint64(uint32(e.U)), Val: int32(2*i + 1)})
	}
	scratch := make([]psort.Pair, len(arcs))
	b.Run("sample-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, arcs)
			psort.SampleSortPairs(p, scratch)
		}
	})
}

// BenchmarkPublicAPI tracks the end-to-end cost through the public entry
// point with Auto selection.
func BenchmarkPublicAPI(b *testing.B) {
	g, err := RandomConnectedGraph(benchN, 4*benchN, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BiconnectedComponents(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRepresentation measures the §1 representation trade:
// running TV-opt from an edge list directly versus converting from the
// Woo–Sahni-style adjacency matrix first. Matrix sizes are capped at the
// ~2,000 vertices their study could handle.
func BenchmarkAblationRepresentation(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := gen.Dense(1800, 0.7, 42) // Woo–Sahni regime: 70% of complete
	mat, err := graph.MatrixFromEdgeList(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("edge-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Custom(p, graph.Wrap(g), core.TVOptConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adjacency-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			el := mat.ToEdgeList()
			if _, err := core.Custom(p, graph.Wrap(el), core.TVOptConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScaling measures weak scaling of the winning algorithm over
// problem size at fixed density m = 4n: near-linear growth in ns/op
// confirms the linear-work implementation.
func BenchmarkScaling(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	for _, n := range []int{10_000, 20_000, 40_000, 80_000} {
		g := gen.RandomConnected(n, 4*n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Custom(p, graph.Wrap(g), core.TVFilterConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTourConstruction compares two ways to number one
// work-stealing tree: the level-order kernel, which writes no tour, and the
// computed DFS-order tour of Cong & Bader [6] (DFSOrderParallel) followed
// by the prefix-sum tree computations.
func BenchmarkAblationTourConstruction(b *testing.B) {
	p := runtime.GOMAXPROCS(0)
	g := benchGraph(4 * benchN)
	rooted := spantree.WorkStealing(p, graph.ToCSR(p, g))
	b.Run("level-order-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := treecomp.Order(nil, rooted)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.Number(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("computed-tour-prefix-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := treecomp.Compute(p, eulertour.DFSOrderParallel(p, g.Edges, rooted)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
