package plan

import (
	"math"

	"bicc/internal/engine"
)

// EngineOrder lists every engine the planner may choose, by its engine-table
// name, in tie-break order: when two candidates score equally, the earlier
// one wins, so the promoted skeleton engine is preferred over the TV
// variants at a draw. The planner speaks names so it can sit below the
// public package, which imports it to resolve Auto runs.
var EngineOrder = []string{engine.Sequential, engine.FastBCC, engine.TVFilter, engine.TVOpt, engine.TVSMP}

// The prior cost model: estimated latency = work · scale · factor / eff(p)
// + p · overhead, with work = n + 2m. The constants are calibrated against
// BENCH_2.json (m = 4n at scale 0.1: sequential 43.7 ms, fast-bcc 65.5 ms,
// tv-filter 103.6 ms, tv-smp 107.3 ms, tv-opt 118.0 ms for work = 9·10^5),
// then bent to encode three decisions the raw p=1 numbers cannot express:
//
//   - the FAST-BCC promotion (ROADMAP): past smallWork, unannotated queries
//     get the parallel skeleton engine, not the DFS baseline — sequential
//     cannot use a second core and pins an admission worker for its whole
//     run, so its prior carries seqScalePenalty at scale;
//   - the paper's §4 rule survives at high parallelism: TV-filter's factor
//     discount on dense graphs and its p^0.75 scaling make it win once
//     enough workers amortize the tour, TV-opt takes the sparse high-p
//     region;
//   - BFS-based engines (TV-filter, FAST-BCC) pay for diameter: their level
//     sweeps cost O(d) rounds, so the high-diameter class routes to TV-opt's
//     work-stealing traversal (or sequential at p=1).
const (
	// scaleNs is nanoseconds of estimated latency per unit of work for a
	// factor-1.0 engine.
	scaleNs = 50
	// overheadNs is the per-worker startup/barrier cost charged to parallel
	// engines: on tiny graphs it dominates and sends the decision to the
	// sequential engine.
	overheadNs = 200_000
	// smallWork is where the sequential engine stops being the default: past
	// 64Ki work units its inability to scale costs more than its constant
	// advantage. Matches SizeClass >= 5.
	smallWork = 1 << 16
	// seqScalePenalty inflates sequential's prior past smallWork.
	seqScalePenalty = 1.9
	// diamHighPenalty and diamMidPenalty multiply the BFS-based engines'
	// factors by diameter class.
	diamHighPenalty = 2.2
	diamMidPenalty  = 1.3
	// filterSparsePenalty inflates TV-filter below the paper's m >= 4n
	// threshold: with few nontree edges to discard, filtering is overhead.
	filterSparsePenalty = 1.3
)

// engineFactor returns the per-work-unit cost factor of eng on a graph with
// features f — the p=1 shape of the prior.
func engineFactor(eng string, f Features) float64 {
	diam := 1.0
	switch f.DiamClass {
	case DiamHigh:
		diam = diamHighPenalty
	case DiamMid:
		diam = diamMidPenalty
	}
	switch eng {
	case engine.Sequential:
		if f.work() >= smallWork {
			return seqScalePenalty
		}
		return 1.0
	case engine.FastBCC:
		return 1.4 * diam
	case engine.TVFilter:
		factor := 2.3 * diam
		if f.DensityClass < 2 {
			factor *= filterSparsePenalty
		}
		return factor
	case engine.TVOpt:
		return 2.65
	case engine.TVSMP:
		return 2.4
	}
	// Every engine in EngineOrder needs a case above; a made-up default
	// would let a new engine win or lose on a guess.
	panic("plan: no prior cost factor for engine " + eng)
}

// engineEff returns the effective-speedup divisor of eng at p workers.
// The exponents mirror the paper's Fig. 3 shapes: TV-opt and TV-filter scale
// best, TV-SMP's sort-based Euler tour worst among the TV family, and
// FAST-BCC — already cheap at p=1 — gains the least from extra workers
// (BENCH_2's flat p=1 vs p=4 curve).
func engineEff(eng string, p int) float64 {
	if p <= 1 {
		return 1
	}
	switch eng {
	case engine.Sequential:
		return 1
	case engine.TVSMP:
		return math.Pow(float64(p), 0.5)
	case engine.FastBCC:
		return math.Pow(float64(p), 0.4)
	default: // tv-opt, tv-filter, future engines
		return math.Pow(float64(p), 0.75)
	}
}

// priorNs estimates the latency of running eng at p workers on a graph with
// features f, in nanoseconds.
func priorNs(eng string, p int, f Features) float64 {
	if p < 1 {
		p = 1
	}
	est := f.work() * scaleNs * engineFactor(eng, f) / engineEff(eng, p)
	if eng != engine.Sequential {
		est += float64(p) * overheadNs
	}
	return est
}
