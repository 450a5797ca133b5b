package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus type of a metric family.
type MetricType string

// The three metric types the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must not be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// child is one labeled series of a family. Exactly one of the value fields
// is set, matching the family's type.
type child struct {
	values []string       // label values, parallel to family.labels
	c      *Counter       // TypeCounter, atomic-backed
	cf     func() int64   // TypeCounter, callback-backed
	gf     func() float64 // TypeGauge, callback-backed
	h      *Histogram     // TypeHistogram
}

// family is one named metric with a fixed label schema and any number of
// labeled children.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string

	mu       sync.Mutex
	children map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration is idempotent: asking for an existing (name, type,
// labels) family returns the same family, and asking for an existing child
// returns the same counter/histogram, so package-level metric variables and
// repeated constructor calls coexist. Mismatched re-registration (same name,
// different type or label schema) panics — that is always a programming
// error.
//
// The process-wide Default registry carries engine-level metrics (parallel
// runtime, fault injection, per-phase histograms); components with their own
// lifecycle (one Server per test, say) create private registries and expose
// both through Handler.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// family returns the named family, creating it on first use, and panics on
// a type or label-schema mismatch with a previous registration.
func (r *Registry) family(name, help string, typ MetricType, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, children: map[string]*child{}}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values into a map key; \xff cannot appear in UTF-8
// label values, so the join is unambiguous.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// get returns the child for the given label values, creating it with mk on
// first use. It panics when the value count does not match the label schema.
func (f *family) get(values []string, mk func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values %v, got %d",
			f.name, len(f.labels), f.labels, len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := childKey(values)
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := mk()
	ch.values = append([]string(nil), values...)
	f.children[key] = ch
	return ch
}

// sortedChildren returns the children ordered by label values, for
// deterministic exposition.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// --- counters ---------------------------------------------------------------

// CounterVec is a counter family with labels.
type CounterVec struct {
	fam *family
}

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, TypeCounter, labels)}
}

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	ch := v.fam.get(values, func() *child { return &child{c: &Counter{}} })
	if ch.c == nil {
		panic(fmt.Sprintf("obs: metric %q series %v is callback-backed", v.fam.name, values))
	}
	return ch.c
}

// Func registers a callback-backed series: the counter's value is read from
// fn at exposition time. Use it to expose counters another component already
// maintains (breaker opens, registry evictions) without double accounting.
func (v *CounterVec) Func(fn func() int64, values ...string) {
	v.fam.get(values, func() *child { return &child{cf: fn} })
}

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// --- gauges -----------------------------------------------------------------

// GaugeVec is a gauge family with labels. Gauges are callback-backed: the
// value is sampled at exposition time, so components expose live state
// (queue depth, breaker state) without maintaining shadow variables.
type GaugeVec struct {
	fam *family
}

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, TypeGauge, labels)}
}

// Func registers the sampling callback for one labeled series.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.fam.get(values, func() *child { return &child{gf: fn} })
}

// GaugeFunc registers an unlabeled callback gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeVec(name, help).Func(fn)
}

// --- histograms -------------------------------------------------------------

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	fam *family
}

// HistogramVec registers (or retrieves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.family(name, help, TypeHistogram, labels)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	ch := v.fam.get(values, func() *child { return &child{h: &Histogram{}} })
	return ch.h
}

// Histogram registers (or retrieves) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramVec(name, help).With()
}

// sortedFamilies snapshots the registry's families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
