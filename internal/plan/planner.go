package plan

import (
	"sort"
	"strconv"
	"sync"

	"bicc/internal/engine"
	"bicc/internal/graph"
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
	// ScoreNs is the prior cost model's latency estimate the decision ranks
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
	maxProcs int
	allow    func(engine string) bool

	decisions    *obs.CounterVec
	procsCounter *obs.CounterVec
	extractions  *obs.Counter
	fallbacks    *obs.Counter

	mu       sync.Mutex
	byEngine map[string]int64
	byProcs  map[string]int64
	total    int64
	fellBack int64
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
	return &Planner{
		maxProcs: maxProcs,
		allow:    c.Allow,
		decisions: reg.CounterVec("bicc_plan_decisions_total",
			"Planner decisions by chosen engine.", "engine"),
		procsCounter: reg.CounterVec("bicc_plan_procs_total",
			"Planner decisions by chosen parallelism degree.", "procs"),
		extractions: reg.Counter("bicc_plan_feature_extractions_total",
			"Feature-vector computations."),
		fallbacks: reg.Counter("bicc_plan_fallbacks_total",
			"Decisions where every candidate engine was filtered out and the planner fell back to sequential."),
		byEngine: map[string]int64{},
		byProcs:  map[string]int64{},
	}
}

// FeaturesOf extracts g's feature vector with the planner's analysis
// workers. It keeps nothing: a caller planning one graph repeatedly keeps
// the vector with the graph's identity.
func (p *Planner) FeaturesOf(g *graph.EdgeList) Features {
	p.extractions.Inc()
	return Extract(p.maxProcs, g)
}

// Decide picks the engine and parallelism for a request with feature vector
// f. pinnedProcs > 0 means the caller fixed the parallelism degree (the
// request named procs explicitly) and the planner only chooses the engine;
// 0 lets the planner choose both. When explain is true the returned Decision
// carries the full scored candidate slate.
func (p *Planner) Decide(f Features, pinnedProcs int, explain bool) Decision {
	cands := p.score(f, pinnedProcs)
	d := Decision{Engine: cands[0].Engine, Procs: cands[0].Procs}
	if explain {
		d.Candidates = cands
	}

	procs := strconv.Itoa(d.Procs)
	p.decisions.With(d.Engine).Inc()
	p.procsCounter.With(procs).Inc()
	p.mu.Lock()
	p.total++
	p.byEngine[d.Engine]++
	p.byProcs[procs]++
	p.mu.Unlock()
	return d
}

// score builds and ranks the candidate slate, best first.
func (p *Planner) score(f Features, pinnedProcs int) []Candidate {
	procsSet := p.procsChoices(pinnedProcs)
	cands := make([]Candidate, 0, len(EngineOrder)*len(procsSet))
	for _, eng := range EngineOrder {
		if p.allow != nil && !p.allow(eng) {
			continue
		}
		for _, procs := range procsSet {
			if eng == engine.Sequential && procs > 1 {
				continue // the DFS baseline cannot use more workers
			}
			cands = append(cands, candidate(f, eng, procs))
		}
	}
	if len(cands) == 0 {
		// Every engine filtered out (all breakers open): sequential is the
		// supervisor's own last resort, so degrade to it rather than fail.
		p.fallbacks.Inc()
		p.mu.Lock()
		p.fellBack++
		p.mu.Unlock()
		cands = append(cands, candidate(f, engine.Sequential, 1))
	}
	// Stable sort keeps EngineOrder (then ascending procs) as the tie-break.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].ScoreNs < cands[j].ScoreNs })
	return cands
}

// candidate scores eng at procs workers by the prior cost model.
func candidate(f Features, eng string, procs int) Candidate {
	return Candidate{Engine: eng, Procs: procs, ScoreNs: int64(priorNs(eng, procs, f))}
}

// procsChoices returns the parallelism degrees to consider: the pinned value
// alone, or powers of two up to (and including) the cap.
func (p *Planner) procsChoices(pinned int) []int {
	if pinned > 0 {
		return []int{pinned}
	}
	var out []int
	for q := 1; q < p.maxProcs; q *= 2 {
		out = append(out, q)
	}
	return append(out, p.maxProcs)
}

// Snapshot is the /statsz plan section.
type Snapshot struct {
	MaxProcs  int              `json:"max_procs"`
	Decisions int64            `json:"decisions"`
	ByEngine  map[string]int64 `json:"by_engine,omitempty"`
	ByProcs   map[string]int64 `json:"by_procs,omitempty"`
	Fallbacks int64            `json:"fallbacks,omitempty"`
}

// Snapshot returns current planner counters for reporting.
func (p *Planner) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		MaxProcs:  p.maxProcs,
		Decisions: p.total,
		Fallbacks: p.fellBack,
	}
	if len(p.byEngine) > 0 {
		s.ByEngine = make(map[string]int64, len(p.byEngine))
		for k, v := range p.byEngine {
			s.ByEngine[k] = v
		}
	}
	if len(p.byProcs) > 0 {
		s.ByProcs = make(map[string]int64, len(p.byProcs))
		for k, v := range p.byProcs {
			s.ByProcs[k] = v
		}
	}
	return s
}
