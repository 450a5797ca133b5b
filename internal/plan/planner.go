package plan

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"bicc/internal/engine"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// Config parameterizes a Planner. The zero value is usable: all engines
// allowed, adaptive mode, default exploration cadence, metrics on the
// process-wide registry.
type Config struct {
	// MaxProcs caps the parallelism degree the planner may choose; 0 means
	// par.Procs(0) (GOMAXPROCS).
	MaxProcs int
	// Frozen makes decisions from the prior alone — no observed-latency
	// blending, no exploration — so a frozen planner is a pure function of
	// the feature vector. Differential and golden tests run frozen.
	Frozen bool
	// Allow filters the candidate engine set; nil allows everything. The
	// service wires the PR 2 circuit breakers here so a tripped engine drops
	// out of consideration. When the filter rejects every engine the planner
	// falls back to the sequential baseline rather than returning nothing —
	// the same path of last resort the supervisor degrades to.
	Allow func(engine string) bool
	// History seeds the model for buckets with no observations yet, from any
	// coarser per-engine latency source (the service passes its per-algorithm
	// request histograms). It returns the observed mean and sample count for
	// an engine, (0, 0) when unknown.
	History func(engine string) (time.Duration, int64)
	// ExploreEvery is the deterministic exploration cadence: every Nth
	// decision in a feature bucket runs the runner-up candidate instead of
	// the winner, so the online model keeps learning about near-misses.
	// 0 means the default (every 16th); negative disables exploration.
	ExploreEvery int
	// PriorWeight is the pseudo-sample count backing the prior when blending
	// with observed means; 0 means the default (3). Higher values make the
	// planner slower to abandon the paper's rule.
	PriorWeight int
	// Registry receives the bicc_plan_* metrics; nil means obs.Default().
	Registry *obs.Registry
}

// Defaults for Config zero values.
const (
	defaultExploreEvery = 16
	defaultPriorWeight  = 3
	// historyWeightCap bounds how many samples the coarse per-engine history
	// counts for: it is not bucket-specific, so it must never drown out real
	// per-bucket observations.
	historyWeightCap = 8
	// featCacheCap bounds the feature cache (FIFO eviction). Entries are a
	// few dozen bytes; the registry holds far fewer live graphs than this.
	featCacheCap = 512
)

// Candidate is one scored (engine, procs) option, echoed by ?explain=1.
type Candidate struct {
	Engine string `json:"engine"`
	Procs  int    `json:"procs"`
	// PriorNs is the cost model's latency estimate.
	PriorNs int64 `json:"prior_ns"`
	// ObservedNs and Samples report the per-bucket online model's mean, when
	// any observations exist.
	ObservedNs int64 `json:"observed_ns,omitempty"`
	Samples    int64 `json:"samples,omitempty"`
	// ScoreNs is the blended estimate the decision ranks by (lower wins).
	ScoreNs int64 `json:"score_ns"`
}

// Decision is the planner's answer for one request.
type Decision struct {
	Engine string `json:"engine"`
	Procs  int    `json:"procs"`
	Bucket string `json:"bucket"`
	// Explored marks a deliberate runner-up dispatch.
	Explored bool `json:"explored,omitempty"`
	// Frozen marks a prior-only decision.
	Frozen bool `json:"frozen,omitempty"`
	// Candidates carries the scored slate, populated only when the caller
	// asked to explain.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Planner decides engine and parallelism per request and learns from
// observed latencies. Safe for concurrent use.
type Planner struct {
	cfg      config
	observed *obs.HistogramVec

	decisions    *obs.CounterVec
	procsCounter *obs.CounterVec
	explores     *obs.Counter
	observations *obs.Counter
	extractions  *obs.Counter
	fallbacks    *obs.Counter

	mu         sync.Mutex
	feats      map[string]Features
	featOrder  []string
	bucketSeen map[string]int64 // per-bucket decision counter, drives exploration
	byEngine   map[string]int64
	byProcs    map[string]int64
	total      int64
	explored   int64
	fellBack   int64
	obsCount   int64
}

// config is Config with defaults resolved.
type config struct {
	Config
	maxProcs     int
	exploreEvery int
	priorWeight  float64
}

// New builds a Planner and registers its bicc_plan_* metric families.
func New(c Config) *Planner {
	rc := config{Config: c}
	rc.maxProcs = c.MaxProcs
	if rc.maxProcs <= 0 {
		rc.maxProcs = par.Procs(0)
	}
	rc.exploreEvery = c.ExploreEvery
	if rc.exploreEvery == 0 {
		rc.exploreEvery = defaultExploreEvery
	}
	rc.priorWeight = float64(c.PriorWeight)
	if rc.priorWeight <= 0 {
		rc.priorWeight = defaultPriorWeight
	}
	reg := c.Registry
	if reg == nil {
		reg = obs.Default()
	}
	p := &Planner{
		cfg: rc,
		observed: reg.HistogramVec("bicc_plan_observed_seconds",
			"Clean-run latency observed by the planner's online model.",
			"engine", "procs", "bucket"),
		decisions: reg.CounterVec("bicc_plan_decisions_total",
			"Planner decisions by chosen engine.", "engine"),
		procsCounter: reg.CounterVec("bicc_plan_procs_total",
			"Planner decisions by chosen parallelism degree.", "procs"),
		explores: reg.Counter("bicc_plan_explorations_total",
			"Decisions that deliberately dispatched the runner-up candidate."),
		observations: reg.Counter("bicc_plan_observations_total",
			"Latency samples fed back into the online model."),
		extractions: reg.Counter("bicc_plan_feature_extractions_total",
			"Feature-vector computations (cache misses)."),
		fallbacks: reg.Counter("bicc_plan_fallbacks_total",
			"Decisions where every candidate engine was filtered out and the planner fell back to sequential."),
		feats:      map[string]Features{},
		bucketSeen: map[string]int64{},
		byEngine:   map[string]int64{},
		byProcs:    map[string]int64{},
	}
	return p
}

// Frozen reports whether the planner decides from the prior alone.
func (p *Planner) Frozen() bool { return p.cfg.Frozen }

// MaxProcs returns the effective parallelism cap.
func (p *Planner) MaxProcs() int { return p.cfg.maxProcs }

// FeaturesOf returns g's feature vector, computing it on first sight and
// caching by identity afterwards. The key includes the graph's dimensions so
// a recycled allocation at the same address with different contents misses;
// a stale hit after an in-place append is harmless — the plan may be
// slightly off, the answer is still exact.
func (p *Planner) FeaturesOf(g *graph.EdgeList) Features {
	key := featKey(g)
	p.mu.Lock()
	if f, ok := p.feats[key]; ok {
		p.mu.Unlock()
		return f
	}
	p.mu.Unlock()

	f := Extract(p.cfg.maxProcs, g)
	p.extractions.Inc()

	p.mu.Lock()
	if _, ok := p.feats[key]; !ok {
		if len(p.featOrder) >= featCacheCap {
			delete(p.feats, p.featOrder[0])
			p.featOrder = p.featOrder[1:]
		}
		p.feats[key] = f
		p.featOrder = append(p.featOrder, key)
	}
	p.mu.Unlock()
	return f
}

func featKey(g *graph.EdgeList) string {
	return fmt.Sprintf("%p:%d:%d", g, g.N, len(g.Edges))
}

// Decide picks the engine and parallelism for a request with feature vector
// f. pinnedProcs > 0 means the caller fixed the parallelism degree (the
// request named procs explicitly) and the planner only chooses the engine;
// 0 lets the planner choose both. When explain is true the returned Decision
// carries the full scored candidate slate.
func (p *Planner) Decide(f Features, pinnedProcs int, explain bool) Decision {
	bucket := f.Bucket()
	cands := p.score(f, pinnedProcs, bucket)

	d := Decision{Bucket: bucket, Frozen: p.cfg.Frozen}
	best := 0
	if len(cands) > 1 && !p.cfg.Frozen && p.cfg.exploreEvery > 0 {
		p.mu.Lock()
		n := p.bucketSeen[bucket]
		p.bucketSeen[bucket] = n + 1
		p.mu.Unlock()
		if (n+1)%int64(p.cfg.exploreEvery) == 0 {
			best = 1 // deterministic counter-based exploration: runner-up
			d.Explored = true
		}
	}
	d.Engine = cands[best].Engine
	d.Procs = cands[best].Procs
	if explain {
		d.Candidates = cands
	}

	p.decisions.With(d.Engine).Inc()
	p.procsCounter.With(strconv.Itoa(d.Procs)).Inc()
	if d.Explored {
		p.explores.Inc()
	}
	p.mu.Lock()
	p.total++
	p.byEngine[d.Engine]++
	p.byProcs[strconv.Itoa(d.Procs)]++
	if d.Explored {
		p.explored++
	}
	p.mu.Unlock()
	return d
}

// score builds and ranks the candidate slate, best first.
func (p *Planner) score(f Features, pinnedProcs int, bucket string) []Candidate {
	procsSet := p.procsChoices(pinnedProcs)
	cands := make([]Candidate, 0, len(EngineOrder)*len(procsSet))
	for _, eng := range EngineOrder {
		if p.cfg.Allow != nil && !p.cfg.Allow(eng) {
			continue
		}
		for _, procs := range procsSet {
			if eng == engine.Sequential && procs > 1 {
				continue // the DFS baseline cannot use more workers
			}
			cands = append(cands, p.scoreOne(f, eng, procs, bucket))
		}
	}
	if len(cands) == 0 {
		// Every engine filtered out (all breakers open): sequential is the
		// supervisor's own last resort, so degrade to it rather than fail.
		p.fallbacks.Inc()
		p.mu.Lock()
		p.fellBack++
		p.mu.Unlock()
		cands = append(cands, p.scoreOne(f, engine.Sequential, 1, bucket))
	}
	// Stable sort keeps EngineOrder (then ascending procs) as the tie-break.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].ScoreNs < cands[j].ScoreNs })
	return cands
}

// scoreOne blends the prior with per-bucket observations (and, for cold
// buckets, the coarse per-engine history) into one estimate.
func (p *Planner) scoreOne(f Features, engine string, procs int, bucket string) Candidate {
	c := Candidate{Engine: engine, Procs: procs}
	prior := priorNs(engine, procs, f)
	c.PriorNs = int64(prior)
	if p.cfg.Frozen {
		c.ScoreNs = c.PriorNs
		return c
	}

	num := prior * p.cfg.priorWeight
	den := p.cfg.priorWeight
	if h, ok := p.observed.Peek(engine, strconv.Itoa(procs), bucket); ok {
		if s := h.Snapshot(); s.Count > 0 {
			c.ObservedNs = s.MeanN
			c.Samples = s.Count
			num += float64(s.MeanN) * float64(s.Count)
			den += float64(s.Count)
		}
	}
	if c.Samples == 0 && p.cfg.History != nil {
		// Cold bucket: let the engine's overall latency history nudge the
		// prior, capped so it cannot outvote future per-bucket samples.
		if mean, n := p.cfg.History(engine); n > 0 && mean > 0 {
			w := float64(n)
			if w > historyWeightCap {
				w = historyWeightCap
			}
			num += float64(mean.Nanoseconds()) * w
			den += w
		}
	}
	c.ScoreNs = int64(num / den)
	return c
}

// procsChoices returns the parallelism degrees to consider: the pinned value
// alone, or powers of two up to (and including) the cap.
func (p *Planner) procsChoices(pinned int) []int {
	if pinned > 0 {
		return []int{pinned}
	}
	var out []int
	for q := 1; q < p.cfg.maxProcs; q *= 2 {
		out = append(out, q)
	}
	return append(out, p.cfg.maxProcs)
}

// Observe feeds one clean-run latency back into the online model. Callers
// must only report representative runs — no degraded fallbacks, no
// cancelled or fault-retried attempts — or the model learns the wrong
// engine costs.
func (p *Planner) Observe(f Features, engine string, procs int, d time.Duration) {
	if procs < 1 {
		procs = 1
	}
	p.observed.With(engine, strconv.Itoa(procs), f.Bucket()).Observe(d)
	p.observations.Inc()
	p.mu.Lock()
	p.obsCount++
	p.mu.Unlock()
}

// Snapshot is the /statsz plan section.
type Snapshot struct {
	Mode         string           `json:"mode"` // "adaptive" or "frozen"
	MaxProcs     int              `json:"max_procs"`
	Decisions    int64            `json:"decisions"`
	ByEngine     map[string]int64 `json:"by_engine,omitempty"`
	ByProcs      map[string]int64 `json:"by_procs,omitempty"`
	Explorations int64            `json:"explorations"`
	Observations int64            `json:"observations"`
	Fallbacks    int64            `json:"fallbacks,omitempty"`
	BucketsSeen  int              `json:"buckets_seen"`
}

// Snapshot returns current planner counters for reporting.
func (p *Planner) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Mode:         "adaptive",
		MaxProcs:     p.cfg.maxProcs,
		Decisions:    p.total,
		Explorations: p.explored,
		Observations: p.obsCount,
		Fallbacks:    p.fellBack,
		BucketsSeen:  len(p.bucketSeen),
	}
	if p.cfg.Frozen {
		s.Mode = "frozen"
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
