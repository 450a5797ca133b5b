package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReadDIMACS parses the DIMACS edge format used by most public graph
// benchmark suites:
//
//	c comment
//	p edge <n> <m>
//	e <u> <v>        (1-based endpoints)
//
// Vertices are converted to 0-based ids. Duplicate "e" lines and self loops
// are preserved for the caller to Normalize.
func ReadDIMACS(r io.Reader) (*EdgeList, error) {
	d := newLineDecoder(r)
	var g *EdgeList
	var declared int
	for d.next() {
		if d.n == 0 {
			continue
		}
		switch d.field(0)[0] {
		case 'c': // comment
		case 'p':
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", d.line)
			}
			text := d.text()
			var kind string
			var n, m int
			if _, err := fmt.Sscanf(text, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad problem line %q", d.line, text)
			}
			if kind != "edge" && kind != "col" {
				return nil, fmt.Errorf("graph: line %d: unsupported DIMACS kind %q", d.line, kind)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative sizes", d.line)
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: problem line declares %d vertices, more than %d", d.line, n, math.MaxInt32)
			}
			g = &EdgeList{N: int32(n), Edges: make([]Edge, 0, min(m, maxEdgeHint))}
			declared = m
		case 'e':
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", d.line)
			}
			if d.n != 3 {
				return nil, fmt.Errorf("graph: line %d: expected %q", d.line, "e <u> <v>")
			}
			u, err := d.int32(1)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", d.line, err)
			}
			v, err := d.int32(2)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", d.line, err)
			}
			if u < 1 || v < 1 || u > g.N || v > g.N {
				return nil, fmt.Errorf("graph: line %d: endpoint out of range [1,%d]", d.line, g.N)
			}
			g.Edges = append(g.Edges, Edge{U: u - 1, V: v - 1})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", d.line, d.text())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: no problem line")
	}
	if len(g.Edges) != declared {
		return nil, fmt.Errorf("graph: problem line declares %d edges, found %d", declared, len(g.Edges))
	}
	return g, nil
}

// WriteDIMACS serializes g in the DIMACS edge format (1-based).
func WriteDIMACS(w io.Writer, g *EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U+1, e.V+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary edge-list format.
var binaryMagic = [4]byte{'B', 'I', 'C', 'C'}

// WriteBinary serializes g in a compact little-endian binary format:
// 4-byte magic, int32 n, int32 m, then m (u,v) int32 pairs. Roughly 10x
// faster to parse than the text format for the paper-scale instances.
func WriteBinary(w io.Writer, g *EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := [8]byte{}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.N))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(g.Edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format and validates the result.
func ReadBinary(r io.Reader) (*EdgeList, error) {
	g, err := ReadBinaryLenient(r)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadBinaryLenient parses the binary format without validating edges, for
// callers that Normalize afterwards.
func ReadBinaryLenient(r io.Reader) (*EdgeList, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := int32(binary.LittleEndian.Uint32(hdr[0:]))
	m := int32(binary.LittleEndian.Uint32(hdr[4:]))
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative sizes n=%d m=%d", n, m)
	}
	// m is a hint, as in the text formats: the slice grows with the records
	// read, so a short body declaring 2^31 edges fails at its end.
	g := &EdgeList{N: n, Edges: make([]Edge, 0, min(m, maxEdgeHint))}
	var rec [8]byte
	for i := int32(0); i < m; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		g.Edges = append(g.Edges, Edge{
			U: int32(binary.LittleEndian.Uint32(rec[0:])),
			V: int32(binary.LittleEndian.Uint32(rec[4:])),
		})
	}
	return g, nil
}
