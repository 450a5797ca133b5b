package bicc

import (
	"fmt"
	"io"
	"math"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

// Generators for the instance families used by the paper's evaluation and
// by the examples. All are deterministic in their seed, and each returns an
// error, before allocating anything, for a vertex count outside
// [0, math.MaxInt32].

// RandomGraph returns a graph with n vertices and m distinct uniformly
// random edges — the paper's §5 workload. It returns an error, before
// allocating anything, unless 0 <= n <= math.MaxInt32 and
// 0 <= m <= n(n-1)/2.
func RandomGraph(n, m int, seed int64) (*Graph, error) {
	if err := checkRandomSize(n, m, 0); err != nil {
		return nil, err
	}
	return wrap(gen.Random(n, m, seed)), nil
}

// RandomConnectedGraph returns a connected random graph: a random spanning
// tree plus m-(n-1) random extra edges. It returns an error, before
// allocating anything, unless 0 <= n <= math.MaxInt32 and
// n-1 <= m <= n(n-1)/2 (0 <= m for n = 0).
func RandomConnectedGraph(n, m int, seed int64) (*Graph, error) {
	if err := checkRandomSize(n, m, max(n-1, 0)); err != nil {
		return nil, err
	}
	return wrap(gen.RandomConnected(n, m, seed)), nil
}

// checkRandomSize checks n against the int32 vertex ids and m against
// [minM, n(n-1)/2], the edge counts a simple graph on n vertices can have.
func checkRandomSize(n, m, minM int) error {
	if err := checkVertexCount(n); err != nil {
		return err
	}
	if maxM := int64(n) * int64(n-1) / 2; m < minM || int64(m) > maxM {
		return fmt.Errorf("bicc: edge count %d outside [%d, %d] for %d vertices", m, minM, maxM, n)
	}
	return nil
}

// MeshGraph returns an r x c grid graph, vertex ids row-major.
func MeshGraph(r, c int) (*Graph, error) {
	if err := checkGrid(r, c); err != nil {
		return nil, err
	}
	return wrap(gen.Mesh(r, c)), nil
}

// TorusGraph returns an r x c torus.
func TorusGraph(r, c int) (*Graph, error) {
	if err := checkGrid(r, c); err != nil {
		return nil, err
	}
	return wrap(gen.Torus(r, c)), nil
}

// checkGrid checks that both sides of an r x c grid are non-negative and
// that r·c, computed in int64, fits the int32 vertex ids.
func checkGrid(r, c int) error {
	if r < 0 || c < 0 || r > math.MaxInt32 || c > math.MaxInt32 {
		return fmt.Errorf("bicc: grid %d x %d has a side outside [0, %d]", r, c, math.MaxInt32)
	}
	if n := int64(r) * int64(c); n > math.MaxInt32 {
		return fmt.Errorf("bicc: vertex count %d outside [0, %d]", n, math.MaxInt32)
	}
	return nil
}

// ChainGraph returns a path on n vertices — the paper's pathological
// large-diameter case.
func ChainGraph(n int) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return wrap(gen.Chain(n)), nil
}

// DenseGraph returns a graph retaining the given fraction of all possible
// edges (the Woo–Sahni experimental regime).
func DenseGraph(n int, frac float64, seed int64) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return wrap(gen.Dense(n, frac, seed)), nil
}

// ReadGraph parses the textual edge-list format ("p <n> <m>" header then
// one "u v" pair per line; '#' comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) {
	el, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return wrap(el), nil
}

// WriteGraph serializes g in the textual edge-list format.
func WriteGraph(w io.Writer, g *Graph) error {
	return graph.Write(w, g.gr.EdgeList)
}

// ReadGraphDIMACS parses the DIMACS edge format ("p edge n m" / "e u v",
// 1-based) and normalizes the result (self loops and duplicates dropped).
func ReadGraphDIMACS(r io.Reader) (*Graph, error) {
	el, err := graph.ReadDIMACS(r)
	if err != nil {
		return nil, err
	}
	norm, _, _ := el.Normalize()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	return wrap(norm), nil
}

// WriteGraphDIMACS serializes g in the DIMACS edge format.
func WriteGraphDIMACS(w io.Writer, g *Graph) error {
	return graph.WriteDIMACS(w, g.gr.EdgeList)
}

// ReadGraphBinary parses the compact binary edge-list format.
func ReadGraphBinary(r io.Reader) (*Graph, error) {
	el, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return wrap(el), nil
}

// WriteGraphBinary serializes g in the compact binary edge-list format
// (about 10x faster to parse than the text format at paper scale).
func WriteGraphBinary(w io.Writer, g *Graph) error {
	return graph.WriteBinary(w, g.gr.EdgeList)
}

// PreferentialAttachmentGraph returns a scale-free graph (Barabási–Albert
// style): each new vertex attaches ~k edges to earlier vertices with
// degree-biased choice. It also returns an error, before allocating
// anything, when the process could attach more edges than int32 edge ids
// can number.
func PreferentialAttachmentGraph(n, k int, seed int64) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	if m := gen.MaxAttached(n, k); m > math.MaxInt32 {
		return nil, fmt.Errorf("bicc: %d vertices attaching %d edges each can make %d edges, past %d", n, k, m, math.MaxInt32)
	}
	return wrap(gen.PreferentialAttachment(n, k, seed)), nil
}

// GeometricGraph returns a random geometric graph: n points in the unit
// square, edges between pairs within distance r.
func GeometricGraph(n int, r float64, seed int64) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return wrap(gen.Geometric(n, r, seed)), nil
}
