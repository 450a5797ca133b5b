package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric with its unit and the direction that is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports, on every workload. What
// one "op" is depends on the workload: a round of all five engine solves, an
// upload+query+delete, or a mutation batch+query (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// engineNames are the five engines in presentation order, as the library
// and bccd name them.
var engineNames = []string{"sequential", "tv-smp", "tv-opt", "tv-filter", "fast-bcc"}

// enginePhases lists the Result.Phases each parallel engine records, in
// execution order. The sequential engine records one lap and has no
// breakdown.
var enginePhases = []struct {
	engine string
	phases []string
}{
	{"tv-smp", []string{"spanning-tree", "euler-tour", "root", "low-high", "label-edge", "connected-components"}},
	{"tv-opt", []string{"spanning-tree", "euler-tour", "root", "low-high", "label-edge", "connected-components"}},
	{"tv-filter", []string{"spanning-tree", "filtering", "euler-tour", "root", "low-high", "label-edge", "connected-components"}},
	{"fast-bcc", []string{"spanning-tree", "root", "low-high", "skeleton", "connected-components", "label-edge"}},
}

// kernelNames are the internal entry points the traced run times directly,
// as "<package>.<function>".
var kernelNames = []string{
	"graph.ToCSR",
	"spantree.BFS",
	"spantree.WorkStealing",
	"spantree.SV",
	"conncomp.ShiloachVishkin",
	"psort.SampleSortPairs",
	"prefix.InclusiveSum32",
	"listrank.RanksHJ",
	"eulertour.DFSOrderParallel",
	"treecomp.Compute",
	"treecomp.LowHigh",
	"plan.Extract",
}

// perLayer are the metrics a traced run reports, on every workload. A layer
// that does no work on a workload reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, e := range engineNames {
		add("engine."+e+"_ms", "ms", "lower")
	}
	for _, ep := range enginePhases {
		for _, ph := range ep.phases {
			add("phase."+ep.engine+"."+ph+"_ms", "ms", "lower")
		}
		add("phase."+ep.engine+".unaccounted_ms", "ms", "lower")
	}
	for _, k := range kernelNames {
		add("kernel."+k+"_ms", "ms", "lower")
		add("kernel."+k+"_speedup", "x", "higher")
	}
	add("kernel.spantree.BFS_levels", "count", "lower")

	add("svc.query_ms_p50", "ms", "lower")
	add("svc.query_ms_p90", "ms", "lower")
	add("svc.upload_ms_p50", "ms", "lower")
	add("svc.upload_mb_per_s", "MB/s", "higher")
	add("svc.overhead_ms_p50", "ms", "lower")
	add("svc.admission_wait_ms_p50", "ms", "lower")
	add("svc.engine_ms_p50", "ms", "lower")
	for _, e := range engineNames {
		// Sequential is the fastest engine at two workers on every input
		// measured so far, so routing more queries to it is the better
		// direction; routing to a parallel engine is the worse one.
		better := "lower"
		if e == "sequential" {
			better = "higher"
		}
		add("svc.plan.share."+e, "ratio", better)
	}
	add("svc.par.steals_per_query", "count", "lower")
	add("svc.par.barrier_waits_per_query", "count", "lower")
	add("svc.cache_hit_ratio", "ratio", "higher")

	add("mut.mutate_ms_p50", "ms", "lower")
	add("mut.mutate_ms_p90", "ms", "lower")
	add("mut.apply_ms_p50", "ms", "lower")
	add("mut.overhead_ms_p50", "ms", "lower")
	add("mut.region_edges_p50", "count", "lower")
	add("mut.mode.absorb_share", "ratio", "higher")
	add("mut.mode.rebuild_share", "ratio", "lower")
	add("mut.mode.full_share", "ratio", "lower")
	add("mut.invalidated_per_batch", "count", "lower")
	add("mut.wal_fsync_ms_mean", "ms", "lower")
	add("mut.query_incr_share", "ratio", "higher")

	add("trace.overhead_pct", "%", "lower")
	return out
}

// stat is one measured metric: its value and the number of samples behind
// it.
type stat struct {
	Value float64
	Count int
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	metrics   map[string]stat
	params    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]stat{}, params: map[string]any{}}
}

// fail counts one failed or wrong operation, keeping the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = stat{v, n} }

// setQuantile records the q-quantile of xs under name, with len(xs) as its
// sample count. An empty xs records 0: the layer did no work.
func (o *outcome) setQuantile(name string, xs []float64, q float64) {
	o.set(name, quantile(xs, q), len(xs))
}

// quantile returns the q-quantile of xs, interpolating linearly between the
// closest ranks. xs is not modified; an empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones an external check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// share returns n/total, or 0 when total is 0.
func share(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
