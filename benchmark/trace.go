package main

import (
	"sync"
	"time"
)

// span is one timed call into one layer, recorded by the benchmark around
// the calls it makes (and, for bccd queries, copied from the ?trace=1 spans
// the server returns). Spans of one operation share Op; Parent is the id of
// the span that caused this one, -1 for an operation's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// add records a completed span and returns its id. Record a parent before
// its children: children name it by id.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanIndex answers the per-layer questions the traced run asks of its
// spans. Span ids equal their index.
type spanIndex struct {
	spans    []span
	byName   map[string][]int
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, byName: map[string][]int{}, children: map[int][]int{}}
	for i, s := range spans {
		x.byName[s.Name] = append(x.byName[s.Name], i)
		if s.Parent >= 0 {
			x.children[s.Parent] = append(x.children[s.Parent], i)
		}
	}
	return x
}

func (x *spanIndex) ms(i int) float64 {
	return float64(x.spans[i].EndNs-x.spans[i].StartNs) / 1e6
}

// durations returns the duration in ms of every span named name.
func (x *spanIndex) durations(name string) []float64 {
	var out []float64
	for _, i := range x.byName[name] {
		out = append(out, x.ms(i))
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the time
// its child spans cover, in ms. Children of one span never overlap here.
func (x *spanIndex) selfTimes(name string) []float64 {
	var out []float64
	for _, i := range x.byName[name] {
		self := x.ms(i)
		for _, c := range x.children[i] {
			self -= x.ms(c)
		}
		out = append(out, self)
	}
	return out
}

// childTotals returns, for every span named parent, the summed duration in
// ms of its children named child (a phase can lap twice in one solve).
// Parents without such a child contribute nothing.
func (x *spanIndex) childTotals(parent, child string) []float64 {
	var out []float64
	for _, i := range x.byName[parent] {
		sum, seen := 0.0, false
		for _, c := range x.children[i] {
			if x.spans[c].Name == child {
				sum += x.ms(c)
				seen = true
			}
		}
		if seen {
			out = append(out, sum)
		}
	}
	return out
}

// setEngineLayers derives the engine and phase metrics from "solve.<engine>"
// spans and their "phase.<engine>.<phase>" children, wherever the solve ran
// (in this process or inside bccd).
func setEngineLayers(o *outcome, x *spanIndex) {
	for _, e := range engineNames {
		o.setQuantile("engine."+e+"_ms", x.durations("solve."+e), 0.5)
	}
	for _, ep := range enginePhases {
		solve := "solve." + ep.engine
		for _, ph := range ep.phases {
			o.setQuantile("phase."+ep.engine+"."+ph+"_ms", x.childTotals(solve, "phase."+ep.engine+"."+ph), 0.5)
		}
		o.setQuantile("phase."+ep.engine+".unaccounted_ms", x.selfTimes(solve), 0.5)
	}
}
