package plan

import (
	"math"

	"bicc/internal/engine"
)

// EngineOrder lists every engine the planner may choose, by its engine-table
// name, in tie-break order: when two candidates score equally, the earlier
// one wins. The planner speaks names so it can sit below the public
// package.
var EngineOrder = []string{engine.Sequential, engine.FastBCC, engine.TVFilter, engine.TVOpt, engine.TVSMP}

// The prior cost model: estimated latency = work · scaleNs · ratio, with
// work = n + 2m and ratio an engine's time over the sequential baseline's on
// the same input (1 for the baseline itself).
//
// The ratios are fitted from medians of 11 in-process runs of every engine
// at p=1 and p=2 on a 2-vCPU x86-64 host (EXPERIMENTS.md, "Planner fit"):
// G(16000, 96000), BlockChain(5000, 8), a 512×512 torus and G(100000, m)
// for m = 4n, 10n (two seeds) and 17n. Each entry is the median ratio over
// the inputs on its side of largeClass. Below it (the first four inputs)
// every parallel engine at p=2 is 1.10–6.62× slower than the baseline. At
// and above it fast-bcc at p=2 beats the baseline on all three inputs
// (0.86–0.90×) and tv-filter at p=2 on two (0.92 and 0.95×). To refit on
// another host, time the same rows, replace the table and move
// TestDecisionGolden's rows with it.
const (
	// scaleNs is the baseline's nanoseconds per work unit, the median over
	// the fit inputs (28–125 ns).
	scaleNs = 110
	// largeClass is the first SizeClass (n + m >= 2^20) priced by the
	// large-graph ratios.
	largeClass = 6
)

// fitted holds each parallel engine's ratio at {p=1, p=2}, for graphs below
// and at or above largeClass. The fit host's 2 vCPUs cannot measure p > 2:
// there the p=2 ratio is scaled by (2/p)^exp, with the exponents of the
// hand-set prior the fit replaced — the paper's Fig. 3 shapes, where TV-opt
// and TV-filter scale best, TV-SMP's sort-based tour worse and FAST-BCC
// least.
var fitted = map[string]struct {
	small, large [2]float64
	exp          float64
}{
	engine.FastBCC:  {[2]float64{1.59, 1.70}, [2]float64{1.20, 0.89}, 0.4},
	engine.TVFilter: {[2]float64{2.81, 2.43}, [2]float64{1.43, 0.95}, 0.75},
	engine.TVOpt:    {[2]float64{3.14, 2.85}, [2]float64{1.84, 1.37}, 0.75},
	engine.TVSMP:    {[2]float64{3.41, 2.64}, [2]float64{1.35, 1.13}, 0.5},
}

// ratio returns eng's estimated time over the baseline's at p workers on a
// graph with features f.
func ratio(eng string, p int, f Features) float64 {
	if eng == engine.Sequential {
		return 1
	}
	fit, ok := fitted[eng]
	if !ok {
		// Every engine in EngineOrder needs a row; a made-up default would
		// let a new engine win or lose on a guess.
		panic("plan: no fitted cost ratio for engine " + eng)
	}
	r := fit.small
	if f.SizeClass >= largeClass {
		r = fit.large
	}
	if p <= 1 {
		return r[0]
	}
	return r[1] * math.Pow(2/float64(p), fit.exp)
}

// priorNs estimates the latency of running eng at p workers on a graph with
// features f, in nanoseconds.
func priorNs(eng string, p int, f Features) float64 {
	return f.work() * scaleNs * ratio(eng, p, f)
}
