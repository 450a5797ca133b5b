// Package engine is the one definition of the biconnected components engine
// set: the sequential Hopcroft–Tarjan baseline and four presets of the one
// TV pipeline (core.Custom): the paper's TV-SMP, TV-opt and TV-filter, and
// the skeleton-based FAST-BCC.
// Everything that names, runs, lists or guards an engine — the public
// Algorithm type, the service's breakers and latency series, the planner,
// the bench harness and the command-line tools — iterates All.
package engine

import (
	"bicc/internal/core"
	"bicc/internal/graph"
	"bicc/internal/obs"
	"bicc/internal/par"
)

// Engine names: the wire, metric-label and command-line spelling.
const (
	Sequential = "sequential"
	TVSMP      = "tv-smp"
	TVOpt      = "tv-opt"
	TVFilter   = "tv-filter"
	FastBCC    = "fast-bcc"
)

// Runner computes the block decomposition of g with p workers. It polls c
// (nil means never canceled), mirrors each timed phase as a child span of
// sp (nil records nothing), and returns contained panics as
// *par.PanicError values. Every entry of All runs its engine on g's local
// view (graph.Graph.Local); the run that decides the view records the
// core.PhaseToCSR conversion it makes and a core.PhaseRelabel lap first.
// Every engine but TV-SMP reads the CSR of the graph it runs on, and the
// run that converts it records a core.PhaseToCSR lap; no engine writes to
// it.
type Runner func(c *par.Canceler, sp *obs.Span, p int, g *graph.Graph) (*core.Result, error)

// Engine is one entry of the table.
type Engine struct {
	Name string
	// Parallel is false only for the sequential baseline, which ignores p,
	// is the supervisor's fallback of last resort and so has no breaker.
	Parallel bool
	Run      Runner
}

// All lists every engine in presentation order. The public bicc.Algorithm
// constants follow the same order, one past Auto.
var All = []Engine{
	local(Sequential, false, func(c *par.Canceler, sp *obs.Span, _ int, g *graph.Graph) (*core.Result, error) {
		return core.SequentialT(c, sp, g)
	}),
	tv(TVSMP, core.TVSMPConfig()),
	tv(TVOpt, core.TVOptConfig()),
	tv(TVFilter, core.TVFilterConfig()),
	tv(FastBCC, core.FastBCCConfig()),
}

// tv binds a preset of the TV pipeline to its name.
func tv(name string, cfg core.Config) Engine {
	return local(name, true, func(c *par.Canceler, sp *obs.Span, p int, g *graph.Graph) (*core.Result, error) {
		cfg := cfg
		cfg.Cancel, cfg.Span = c, sp
		return core.Custom(p, g, cfg)
	})
}

// local makes the table entry that runs run on g's local view. The
// answers need no mapping back: engine results are per edge id, the view
// keeps g's edge order, and every engine numbers blocks in edge order. The
// sequential engine decides with one worker, as it converts.
func local(name string, parallel bool, run Runner) Engine {
	return Engine{name, parallel, func(c *par.Canceler, sp *obs.Span, p int, g *graph.Graph) (res *core.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				res, err = nil, par.AsPanicError(-1, v)
			}
		}()
		if !parallel {
			p = 1
		}
		sw := core.NewStopwatch(sp)
		l, fresh, converted, err := g.Local(c, p)
		if err != nil {
			return nil, err
		}
		if !converted.IsZero() {
			sw.LapAt(core.PhaseToCSR, converted)
		}
		if fresh {
			sw.Lap(core.PhaseRelabel)
		}
		if res, err = run(c, sp, p, l); err != nil {
			return nil, err
		}
		if ph := sw.Phases(); len(ph) > 0 {
			res.Phases = append(ph, res.Phases...)
		}
		return res, nil
	}}
}

// Lookup returns the engine called name.
func Lookup(name string) (Engine, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// Parallel returns the entries that use more than one worker, in table
// order.
func Parallel() []Engine {
	var out []Engine
	for _, e := range All {
		if e.Parallel {
			out = append(out, e)
		}
	}
	return out
}

// Names returns every engine name in table order.
func Names() []string {
	names := make([]string, len(All))
	for i, e := range All {
		names[i] = e.Name
	}
	return names
}
