package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Trace collects the spans of one logical operation (one bccd request).
// It is goroutine-safe: spans may be started and ended from any goroutine
// of the computation. A trace is explicitly opt-in — computations without
// one attached pay only nil checks.
type Trace struct {
	start time.Time

	mu     sync.Mutex
	nextID int
	done   []SpanExport
}

// NewTrace returns an empty trace anchored at the current time.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Span is one timed, named, optionally labeled section of a trace. A nil
// *Span is valid and inert everywhere, so instrumentation sites need no
// enabled checks of their own.
type Span struct {
	t      *Trace
	id     int
	parent int // parent span id, -1 for roots
	name   string
	begin  time.Time

	mu     sync.Mutex
	labels map[string]string
	ended  bool
}

func (t *Trace) newSpan(parent int, name string) *Span {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parent, name: name, begin: time.Now()}
}

// ChildInterval records an already-completed sub-span covering [begin, end)
// — the natural fit for stopwatch-style phase timing, where the interval is
// known only at the lap. Nil-safe.
func (s *Span) ChildInterval(name string, begin, end time.Time) {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.done = append(t.done, SpanExport{
		ID:         id,
		Parent:     s.id,
		Name:       name,
		StartNs:    begin.Sub(t.start).Nanoseconds(),
		DurationNs: end.Sub(begin).Nanoseconds(),
	})
	t.mu.Unlock()
}

// SetLabel attaches a key=value label to the span. Nil-safe.
func (s *Span) SetLabel(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = map[string]string{}
	}
	s.labels[k] = v
	s.mu.Unlock()
}

// End closes the span and records it on its trace. Ending a span twice
// records it once. Nil-safe.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	var labels map[string]string
	if len(s.labels) > 0 {
		labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			labels[k] = v
		}
	}
	s.mu.Unlock()
	t := s.t
	t.mu.Lock()
	t.done = append(t.done, SpanExport{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		StartNs:    s.begin.Sub(t.start).Nanoseconds(),
		DurationNs: end.Sub(s.begin).Nanoseconds(),
		Labels:     labels,
	})
	t.mu.Unlock()
}

// SpanExport is the JSON shape of one completed span. Offsets are
// nanoseconds from the trace start.
type SpanExport struct {
	ID         int               `json:"id"`
	Parent     int               `json:"parent"` // -1 for root spans
	Name       string            `json:"name"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Labels     map[string]string `json:"labels,omitempty"`
}

// TraceExport is the JSON shape of a trace: every ended span, ordered by
// start time (ties broken by id, so a parent precedes the children that
// started within the same nanosecond).
type TraceExport struct {
	Spans []SpanExport `json:"spans"`
}

// Export snapshots the trace's ended spans. Spans still open are not
// included; export after the computation finishes.
func (t *Trace) Export() *TraceExport {
	t.mu.Lock()
	spans := append([]SpanExport(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		return spans[i].ID < spans[j].ID
	})
	return &TraceExport{Spans: spans}
}

// SpansNamed returns the exported spans with the given name, in start
// order.
func (e *TraceExport) SpansNamed(name string) []SpanExport {
	var out []SpanExport
	for _, s := range e.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Validate checks the structural invariants of an exported trace: every
// duration is non-negative, every non-root parent id refers to an exported
// span, no span is its own ancestor, and every child's interval lies within
// its parent's. It returns the first violation found.
func (e *TraceExport) Validate() error {
	byID := make(map[int]SpanExport, len(e.Spans))
	for _, s := range e.Spans {
		if s.DurationNs < 0 {
			return fmt.Errorf("obs: span %d (%s) has negative duration %d", s.ID, s.Name, s.DurationNs)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("obs: duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range e.Spans {
		if s.Parent == -1 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("obs: span %d (%s) references missing parent %d", s.ID, s.Name, s.Parent)
		}
		if p.ID == s.ID {
			return fmt.Errorf("obs: span %d (%s) is its own parent", s.ID, s.Name)
		}
		if s.StartNs < p.StartNs || s.StartNs+s.DurationNs > p.StartNs+p.DurationNs {
			return fmt.Errorf("obs: span %d (%s) [%d,%d) escapes parent %d (%s) [%d,%d)",
				s.ID, s.Name, s.StartNs, s.StartNs+s.DurationNs,
				p.ID, p.Name, p.StartNs, p.StartNs+p.DurationNs)
		}
	}
	return nil
}

// --- context plumbing -------------------------------------------------------

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace attaches t to ctx; StartSpan calls below it record onto
// t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan starts a span named name on the context's trace, nested under
// the context's current span, and returns a context carrying the new span
// as the nesting parent. Without a trace attached it returns ctx unchanged
// and a nil (inert) span, so instrumentation is safe on any context.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent := -1
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok && sp != nil {
		parent = sp.id
	}
	sp := t.newSpan(parent, name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}
