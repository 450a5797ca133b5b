// Package engine is the one definition of the biconnected components engine
// set: the sequential Hopcroft–Tarjan baseline, the paper's three TV
// presets (TV-SMP, TV-opt, TV-filter), and the skeleton-based FAST-BCC.
// Everything that names, runs, lists or guards an engine — the public
// Algorithm type, the service's breakers and latency series, the planner,
// the bench harness and the command-line tools — iterates All.
package engine

import (
	"bicc/internal/core"
	"bicc/internal/fastbcc"
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
// *par.PanicError values. Every engine but TV-SMP reads g's CSR, and the
// run that converts it records a core.PhaseToCSR lap first; no engine
// writes to it.
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
	{Sequential, false, func(c *par.Canceler, sp *obs.Span, _ int, g *graph.Graph) (*core.Result, error) {
		return core.SequentialT(c, sp, g)
	}},
	tv(TVSMP, core.TVSMPConfig()),
	tv(TVOpt, core.TVOptConfig()),
	tv(TVFilter, core.TVFilterConfig()),
	{FastBCC, true, func(c *par.Canceler, sp *obs.Span, p int, g *graph.Graph) (*core.Result, error) {
		return fastbcc.Run(p, g, fastbcc.Config{Cancel: c, Span: sp})
	}},
}

// tv binds a TV pipeline preset to its name.
func tv(name string, cfg core.Config) Engine {
	return Engine{name, true, func(c *par.Canceler, sp *obs.Span, p int, g *graph.Graph) (*core.Result, error) {
		cfg := cfg
		cfg.Cancel, cfg.Span = c, sp
		return core.Custom(p, g, cfg)
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
