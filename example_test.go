package bicc_test

import (
	"fmt"

	"bicc"
)

// A triangle with a pendant edge: one 2-connected block plus one bridge.
func ExampleBiconnectedComponents() {
	g, err := bicc.NewGraph(4, []bicc.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
	})
	if err != nil {
		panic(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", res.NumComponents)
	fmt.Println("articulation points:", res.ArticulationPoints())
	fmt.Println("bridges:", res.Bridges())
	// Output:
	// components: 2
	// articulation points: [2]
	// bridges: [3]
}

// Forcing the paper's TV-filter algorithm and reading its phase names.
func ExampleOptions() {
	g, err := bicc.RandomConnectedGraph(1000, 5000, 42)
	if err != nil {
		panic(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{
		Algorithm: bicc.TVFilter,
		Procs:     2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", res.Algorithm)
	fmt.Println("phases recorded:", len(res.Phases) > 0)
	// Output:
	// algorithm: tv-filter
	// phases recorded: true
}

// The block-cut tree of two triangles joined at a cut vertex.
func ExampleResult_BlockCutTree() {
	g, err := bicc.NewGraph(5, []bicc.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
	})
	if err != nil {
		panic(err)
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		panic(err)
	}
	t := res.BlockCutTree()
	fmt.Println("blocks:", t.NumBlocks())
	fmt.Println("cut vertices:", t.CutVertices())
	fmt.Println("vertex 2 belongs to", len(t.BlocksOfVertex(2)), "blocks")
	// Output:
	// blocks: 2
	// cut vertices: [2]
	// vertex 2 belongs to 2 blocks
}

// Certifying a result independently of the algorithm that produced it.
func ExampleVerify() {
	g, err := bicc.RandomConnectedGraph(200, 600, 7)
	if err != nil {
		panic(err)
	}
	res, err := bicc.BiconnectedComponents(g, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", bicc.Verify(g, res) == nil)
	// Output:
	// verified: true
}

// Counting blocks without materializing per-edge labels.
func ExampleCountBlocks() {
	g, err := bicc.ChainGraph(6) // every edge is its own block
	if err != nil {
		panic(err)
	}
	n, err := bicc.CountBlocks(g, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output:
	// 5
}
