// Package bench is the harness that regenerates the paper's evaluation
// (§5) for every engine in the engine table: Fig. 3 (wall-clock time and
// speedup across processor counts and edge densities on random graphs) and
// Fig. 4 (per-step execution-time breakdown at maximum processor count).
//
// The Sun E4500's 12 processors are modeled by sweeping GOMAXPROCS-bounded
// worker counts; absolute times differ from the paper's 400 MHz UltraSPARC
// numbers, but the relative shape — which algorithm wins at which density,
// and which steps dominate — is the reproduction target.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bicc/internal/core"
	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// Instance describes one benchmark input, the paper's random G(n,m) family.
type Instance struct {
	Name string
	N    int
	M    int
	Seed int64
}

// Build materializes the instance as a connected random graph (the paper's
// inputs are connected; BCC of a disconnected graph is still defined, but
// connectivity keeps the comparison faithful).
func (in Instance) Build() *graph.EdgeList {
	return gen.RandomConnected(in.N, in.M, in.Seed)
}

// PaperInstances returns the paper's Fig. 3/4 workload scaled by factor
// scale (scale=1 reproduces 1M vertices with 4M, 10M and 20M ≈ n·log n
// edges; smaller scales shrink proportionally for quick runs).
func PaperInstances(scale float64) []Instance {
	n := int(1_000_000 * scale)
	if n < 16 {
		n = 16
	}
	mk := func(name string, m int) Instance {
		if m < n {
			m = n
		}
		return Instance{Name: name, N: n, M: m, Seed: 20050404}
	}
	return []Instance{
		mk("m=4n", 4*n),
		mk("m=10n", 10*n),
		mk("m=nlogn", int(float64(n)*log2(float64(n)))),
	}
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

// Measurement is one timed algorithm execution.
type Measurement struct {
	Instance Instance
	Algo     string
	Procs    int
	Time     time.Duration
	// Result is the median repetition's; its Phases are that run's
	// per-step breakdown, the same laps a bccd ?trace=1 query exports as
	// spans.
	Result *core.Result
}

// Baseline returns the sequential engine every speedup is measured against.
func Baseline() engine.Engine {
	e, _ := engine.Lookup(engine.Sequential)
	return e
}

// Speedup returns the sequential-time / parallel-time ratio against base.
func (m Measurement) Speedup(base time.Duration) float64 {
	if m.Time <= 0 {
		return 0
	}
	return float64(base) / float64(m.Time)
}

// Run executes algo on g with p workers reps times and returns the median
// measurement (the paper reports steady-state times; median suppresses GC
// and scheduler noise).
func Run(in Instance, g *graph.EdgeList, algo engine.Engine, p, reps int) (Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	runs := make([]Measurement, 0, reps)
	for r := 0; r < reps; r++ {
		// A fresh graph per repetition charges every run its own CSR
		// conversion, as the committed Fig. 3/4 results do.
		gr := graph.Wrap(g)
		start := time.Now()
		res, err := algo.Run(nil, nil, p, gr)
		if err != nil {
			return Measurement{}, fmt.Errorf("%s p=%d: %w", algo.Name, p, err)
		}
		runs = append(runs, Measurement{Instance: in, Algo: algo.Name, Procs: p, Time: time.Since(start), Result: res})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Time < runs[j].Time })
	return runs[len(runs)/2], nil
}

// Fig3 regenerates the paper's Figure 3: for every instance and processor
// count, the wall-clock time of each algorithm and its speedup over the
// sequential implementation on the same instance. Rows are written as an
// aligned table; the measurements are also returned for programmatic use.
func Fig3(w io.Writer, instances []Instance, procs []int, reps int) ([]Measurement, error) {
	var all []Measurement
	fmt.Fprintf(w, "# Fig. 3 — execution time and speedup on random graphs\n")
	fmt.Fprintf(w, "%-10s %10s %10s %-12s %5s %12s %8s\n",
		"instance", "n", "m", "algorithm", "p", "time", "speedup")
	for _, in := range instances {
		g := in.Build()
		seq, err := Run(in, g, Baseline(), 1, reps)
		if err != nil {
			return nil, err
		}
		all = append(all, seq)
		fmt.Fprintf(w, "%-10s %10d %10d %-12s %5d %12v %8.2f\n",
			in.Name, in.N, in.M, seq.Algo, 1, seq.Time.Round(time.Microsecond), 1.0)
		for _, algo := range engine.Parallel() {
			for _, p := range procs {
				m, err := Run(in, g, algo, p, reps)
				if err != nil {
					return nil, err
				}
				all = append(all, m)
				fmt.Fprintf(w, "%-10s %10d %10d %-12s %5d %12v %8.2f\n",
					in.Name, in.N, in.M, m.Algo, p,
					m.Time.Round(time.Microsecond), m.Speedup(seq.Time))
			}
		}
	}
	return all, nil
}

// Fig4 regenerates the paper's Figure 4: the per-step breakdown of every
// parallel engine at p processors across the instances, read from the
// median runs' Result.Phases. Steps follow the paper's naming:
// Spanning-tree, Euler-tour, root, Low-high, Label-edge,
// Connected-components, Filtering.
func Fig4(w io.Writer, instances []Instance, p, reps int) ([]Measurement, error) {
	var all []Measurement
	fmt.Fprintf(w, "# Fig. 4 — per-step breakdown at p=%d\n", p)
	fmt.Fprintf(w, "%-10s %-12s", "instance", "algorithm")
	for _, ph := range core.PhaseOrder {
		fmt.Fprintf(w, " %14s", ph)
	}
	fmt.Fprintf(w, " %14s\n", "total")
	for _, in := range instances {
		g := in.Build()
		for _, algo := range engine.Parallel() {
			m, err := Run(in, g, algo, p, reps)
			if err != nil {
				return nil, err
			}
			all = append(all, m)
			fmt.Fprintf(w, "%-10s %-12s", in.Name, m.Algo)
			for _, ph := range core.PhaseOrder {
				fmt.Fprintf(w, " %14v", m.Result.PhaseDuration(ph).Round(time.Microsecond))
			}
			fmt.Fprintf(w, " %14v\n", m.Result.Total().Round(time.Microsecond))
		}
	}
	return all, nil
}

// ProcsSweep returns 1, 2, 4, ... up to max (always including max), the
// processor counts swept in Fig. 3.
func ProcsSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	return append(out, max)
}
