package graph

import "io"

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

type failErr string

func (e failErr) Error() string { return string(e) }

var errFail = failErr("forced write failure")

// checked reads with read, then builds the graph with New: what the strict
// readers (bicc.ReadGraph, bicc.ReadGraphBinary) do with a stream.
func checked(read func(io.Reader) (*EdgeList, error), r io.Reader) (*EdgeList, error) {
	el, err := read(r)
	if err != nil {
		return nil, err
	}
	if _, err := New(el, 1); err != nil {
		return nil, err
	}
	return el, nil
}
