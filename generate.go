package bicc

import (
	"io"

	"bicc/internal/gen"
	"bicc/internal/graph"
)

// Generators for the instance families used by the paper's evaluation and
// by the examples. All are deterministic in their seed.

// RandomGraph returns a graph with n vertices and m distinct uniformly
// random edges — the paper's §5 workload. It returns an error when m
// exceeds n(n-1)/2.
func RandomGraph(n, m int, seed int64) (g *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errString("bicc: " + r.(string))
		}
	}()
	return wrap(gen.Random(n, m, seed)), nil
}

// RandomConnectedGraph returns a connected random graph: a random spanning
// tree plus m-(n-1) random extra edges. It returns an error when m < n-1 or
// m > n(n-1)/2.
func RandomConnectedGraph(n, m int, seed int64) (g *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errString("bicc: " + r.(string))
		}
	}()
	return wrap(gen.RandomConnected(n, m, seed)), nil
}

// MeshGraph returns an r x c grid graph, vertex ids row-major.
func MeshGraph(r, c int) *Graph { return wrap(gen.Mesh(r, c)) }

// TorusGraph returns an r x c torus.
func TorusGraph(r, c int) *Graph { return wrap(gen.Torus(r, c)) }

// ChainGraph returns a path on n vertices — the paper's pathological
// large-diameter case.
func ChainGraph(n int) *Graph { return wrap(gen.Chain(n)) }

// DenseGraph returns a graph retaining the given fraction of all possible
// edges (the Woo–Sahni experimental regime).
func DenseGraph(n int, frac float64, seed int64) *Graph {
	return wrap(gen.Dense(n, frac, seed))
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

type errString string

func (e errString) Error() string { return string(e) }

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
// degree-biased choice.
func PreferentialAttachmentGraph(n, k int, seed int64) *Graph {
	return wrap(gen.PreferentialAttachment(n, k, seed))
}

// GeometricGraph returns a random geometric graph: n points in the unit
// square, edges between pairs within distance r.
func GeometricGraph(n int, r float64, seed int64) *Graph {
	return wrap(gen.Geometric(n, r, seed))
}
