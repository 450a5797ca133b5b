package bicc

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bicc/internal/core"
	"bicc/internal/graph"
	"bicc/internal/obs"
)

// csrConversions reads the process-wide count of edge-list to CSR
// conversions.
func csrConversions() int64 {
	return obs.Default().Counter("bicc_csr_conversions_total", "").Load()
}

// csrSnapshot copies a graph's CSR for later byte comparison.
func csrSnapshot(c *graph.CSR) graph.CSR {
	return graph.CSR{N: c.N, Off: slices.Clone(c.Off), Adj: slices.Clone(c.Adj), EdgeID: slices.Clone(c.EdgeID)}
}

func sameCSR(a, b *graph.CSR) bool {
	return a.N == b.N && slices.Equal(a.Off, b.Off) && slices.Equal(a.Adj, b.Adj) && slices.Equal(a.EdgeID, b.EdgeID)
}

func hasPhase(res *Result, name string) bool {
	for _, ph := range res.Phases {
		if ph.Name == name {
			return true
		}
	}
	return false
}

// TestOneCSRPerGraph checks that a graph converts its CSR once. NewGraph
// converts at construction, and then every engine at p ∈ {1, 2},
// SparseCertificate, CountBlocks and Analyze run on it without converting,
// recording to-csr or changing a byte of the CSR. A generated graph has no
// CSR yet: TV-SMP converts nothing, whichever CSR-reading engine and worker
// count goes first converts it and records a to-csr phase before its first
// pipeline phase, and nothing converts after that. Every answer equals the
// sequential oracle's.
func TestOneCSRPerGraph(t *testing.T) {
	base, err := RandomConnectedGraph(2000, 9000, 31)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BiconnectedComponents(mustGraph(t, base.NumVertices(), base.Edges()), &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := want.NumComponents
	check := func(at string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if !slices.Equal(res.EdgeComponent, want.EdgeComponent) {
			t.Fatalf("%s: labels differ from the sequential oracle", at)
		}
	}
	// reuse runs every CSR reader on g, which must hold its CSR already.
	reuse := func(at string, g *Graph) {
		t.Helper()
		c, fresh := g.gr.CSR(1)
		if fresh {
			t.Fatalf("%s left no CSR behind", at)
		}
		snap := csrSnapshot(c)
		same := func(after string) {
			t.Helper()
			if !sameCSR(c, &snap) {
				t.Fatalf("%s: CSR changed after %s", at, after)
			}
		}
		for _, a := range Algorithms() {
			for _, p := range []int{1, 2} {
				res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: p})
				check(fmt.Sprintf("%s, then %v p=%d", at, a, p), res, err)
				if hasPhase(res, core.PhaseToCSR) {
					t.Fatalf("%s, then %v p=%d: converted again: %v", at, a, p, res.Phases)
				}
				same(fmt.Sprintf("%v p=%d", a, p))
			}
		}
		for _, p := range []int{1, 2} {
			if _, _, err := SparseCertificate(g, &Options{Procs: p}); err != nil {
				t.Fatal(err)
			}
			same("SparseCertificate")
			if n, err := CountBlocks(g, &Options{Procs: p}); err != nil || n != wantCount {
				t.Fatalf("%s: CountBlocks = %d, %v; want %d", at, n, err, wantCount)
			}
			same("CountBlocks")
			if st := Analyze(g, p); !st.Connected {
				t.Fatalf("%s: Analyze says a connected graph is not", at)
			}
			same("Analyze")
		}
	}

	before := csrConversions()
	g := mustGraph(t, base.NumVertices(), base.Edges())
	if n := csrConversions() - before; n != 1 {
		t.Fatalf("NewGraph made %d conversions, want 1", n)
	}
	reuse("NewGraph", g)
	if n := csrConversions() - before; n != 1 {
		t.Fatalf("NewGraph and every call after it made %d conversions, want 1", n)
	}

	for _, first := range []Algorithm{Sequential, TVOpt, TVFilter, FastBCC} {
		for _, firstP := range []int{1, 2} {
			g, err := RandomConnectedGraph(2000, 9000, 31)
			if err != nil {
				t.Fatal(err)
			}
			before := csrConversions()
			for _, p := range []int{1, 2} {
				res, err := BiconnectedComponents(g, &Options{Algorithm: TVSMP, Procs: p})
				check(fmt.Sprintf("tv-smp p=%d before any conversion", p), res, err)
				if hasPhase(res, core.PhaseToCSR) || csrConversions() != before {
					t.Fatalf("tv-smp p=%d converted the CSR: phases %v", p, res.Phases)
				}
			}
			res, err := BiconnectedComponents(g, &Options{Algorithm: first, Procs: firstP})
			at := fmt.Sprintf("first %v p=%d", first, firstP)
			check(at, res, err)
			if res.Phases[0].Name != core.PhaseToCSR {
				t.Fatalf("%s: phases %v, want to-csr first", at, res.Phases)
			}
			reuse(at, g)
			if n := csrConversions() - before; n != 1 {
				t.Fatalf("%s: %d conversions on one graph, want 1", at, n)
			}
		}
	}
}

// TestConcurrentFirstSolvesShareOneCSR races eight solves — every engine,
// at one and two workers — on a fresh generated graph, which has no CSR
// yet: they convert it once, and every answer equals the sequential
// oracle's.
func TestConcurrentFirstSolvesShareOneCSR(t *testing.T) {
	base, err := RandomConnectedGraph(3000, 15000, 32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BiconnectedComponents(mustGraph(t, base.NumVertices(), base.Edges()), &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	g := base
	algos := Algorithms()
	before := csrConversions()
	start := make(chan struct{})
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			a, p := algos[i%len(algos)], 1+i%2
			res, err := BiconnectedComponents(g, &Options{Algorithm: a, Procs: p})
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("%v p=%d: %w", a, p, err)
			case !slices.Equal(res.EdgeComponent, want.EdgeComponent):
				errs[i] = fmt.Errorf("%v p=%d: labels differ from the sequential oracle", a, p)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := csrConversions() - before; n != 1 {
		t.Fatalf("eight racing first solves made %d conversions, want 1", n)
	}
}
