package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The on-disk format is a minimal text format compatible with common edge
// list tools:
//
//	# comment lines start with '#'
//	p <n> <m>
//	<u> <v>          (m lines, 0-based endpoints)
//
// Write emits it and ReadLenient parses it. The header's edge count is a
// hint for the slice, not an allocation.

// Write serializes g to w.
func Write(w io.Writer, g *EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	buf := make([]byte, 0, 24)
	for _, e := range g.Edges {
		buf = strconv.AppendInt(buf[:0], int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLenient parses the text edge-list format without validating edges:
// self loops, duplicates and out-of-range endpoints pass through for New
// to reject or Normalize to drop; the header/shape checks still apply.
func ReadLenient(r io.Reader) (*EdgeList, error) {
	d := newLineDecoder(r)
	var g *EdgeList
	var declared int
	for d.next() {
		if d.n == 0 || d.field(0)[0] == '#' {
			continue
		}
		if g == nil {
			text := d.text()
			var n, m int
			if _, err := fmt.Sscanf(text, "p %d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: expected header %q, got %q", d.line, "p <n> <m>", text)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative sizes in header", d.line)
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: header declares %d vertices, more than %d", d.line, n, math.MaxInt32)
			}
			g = &EdgeList{N: int32(n), Edges: make([]Edge, 0, min(m, maxEdgeHint))}
			declared = m
			continue
		}
		if d.n != 2 {
			return nil, fmt.Errorf("graph: line %d: expected %q, got %q", d.line, "<u> <v>", d.text())
		}
		u, err := d.int32(0)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", d.line, err)
		}
		v, err := d.int32(1)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", d.line, err)
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v})
	}
	if d.err != nil {
		return nil, d.err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(g.Edges) != declared {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", declared, len(g.Edges))
	}
	return g, nil
}
