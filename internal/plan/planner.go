package plan

import (
	"cmp"
	"slices"
	"strconv"

	"bicc/internal/engine"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// Config parameterizes a Planner. The zero value is usable: all engines
// allowed, metrics on the process-wide registry.
type Config struct {
	// MaxProcs caps the parallelism degree the planner may choose; 0 means
	// par.Procs(0) (GOMAXPROCS).
	MaxProcs int
	// Allow filters the candidate engine set; nil allows everything. The
	// service wires the PR 2 circuit breakers here so a tripped engine drops
	// out of consideration. When the filter rejects every engine the planner
	// falls back to the sequential baseline rather than returning nothing —
	// the same path of last resort the supervisor degrades to.
	Allow func(engine string) bool
	// Registry receives the bicc_plan_* metrics; nil means obs.Default().
	Registry *obs.Registry
}

// Candidate is one scored (engine, procs) option, echoed by ?explain=1.
type Candidate struct {
	Engine string `json:"engine"`
	Procs  int    `json:"procs"`
	// ScoreNs is the fitted cost model's latency estimate the decision ranks
	// by (lower wins).
	ScoreNs int64 `json:"score_ns"`
}

// Decision is the planner's answer for one request.
type Decision struct {
	Engine string `json:"engine"`
	Procs  int    `json:"procs"`
	// Candidates carries the scored slate, populated only when the caller
	// asked to explain.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Planner decides engine and parallelism per request. Its decisions are a
// pure function of the feature vector, the pinned procs and the Allow
// filter. Safe for concurrent use.
type Planner struct {
	// procs are the unpinned parallelism choices: powers of two below
	// MaxProcs, then MaxProcs.
	procs []int
	allow func(engine string) bool

	decisions    *obs.CounterVec
	procsCounter *obs.CounterVec
	fallbacks    *obs.Counter
}

// New builds a Planner and registers its bicc_plan_* metric families.
func New(c Config) *Planner {
	maxProcs := c.MaxProcs
	if maxProcs <= 0 {
		maxProcs = par.Procs(0)
	}
	reg := c.Registry
	if reg == nil {
		reg = obs.Default()
	}
	var procs []int
	for q := 1; q < maxProcs; q *= 2 {
		procs = append(procs, q)
	}
	return &Planner{
		procs: append(procs, maxProcs),
		allow: c.Allow,
		decisions: reg.CounterVec("bicc_plan_decisions_total",
			"Planner decisions by chosen engine.", "engine"),
		procsCounter: reg.CounterVec("bicc_plan_procs_total",
			"Planner decisions by chosen parallelism degree.", "procs"),
		fallbacks: reg.Counter("bicc_plan_fallbacks_total",
			"Decisions where every candidate engine was filtered out and the planner fell back to sequential."),
	}
}

// Decide picks the engine and parallelism for a request with feature vector
// f. pinnedProcs > 0 means the caller fixed the parallelism degree (the
// request named procs explicitly) and the planner only chooses the engine;
// 0 lets the planner choose both. When explain is true the returned Decision
// carries the full scored candidate slate, best first; otherwise Decide
// allocates nothing.
func (p *Planner) Decide(f Features, pinnedProcs int, explain bool) Decision {
	procs := p.procs
	if pinnedProcs > 0 {
		one := [1]int{pinnedProcs}
		procs = one[:]
	}
	var best Candidate
	var slate []Candidate
	found := false
	for _, eng := range EngineOrder {
		if p.allow != nil && !p.allow(eng) {
			continue
		}
		for _, q := range procs {
			if eng == engine.Sequential && q > 1 {
				continue // the DFS baseline cannot use more workers
			}
			c := candidate(f, eng, q)
			// Strictly cheaper only: EngineOrder, then ascending procs, is
			// the tie-break.
			if !found || c.ScoreNs < best.ScoreNs {
				best, found = c, true
			}
			if explain {
				slate = append(slate, c)
			}
		}
	}
	if !found {
		// Every engine filtered out (all breakers open): sequential is the
		// supervisor's own last resort, so degrade to it rather than fail.
		best = candidate(f, engine.Sequential, 1)
		if explain {
			slate = append(slate, best)
		}
		p.fallbacks.Inc()
	}
	d := Decision{Engine: best.Engine, Procs: best.Procs}
	if explain {
		// Stable, so the slate's head is the decision.
		slices.SortStableFunc(slate, func(a, b Candidate) int { return cmp.Compare(a.ScoreNs, b.ScoreNs) })
		d.Candidates = slate
	}

	p.decisions.With(d.Engine).Inc()
	p.procsCounter.With(strconv.Itoa(d.Procs)).Inc()
	return d
}

// candidate scores eng at procs workers by the prior cost model.
func candidate(f Features, eng string, procs int) Candidate {
	return Candidate{Engine: eng, Procs: procs, ScoreNs: int64(priorNs(eng, procs, f))}
}
