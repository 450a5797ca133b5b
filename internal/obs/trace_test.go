package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceNestingAndExport(t *testing.T) {
	tr := NewTrace()
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), "bcc")
	_, a := StartSpan(ctx, "attempt")
	a.SetLabel("attempt", "0")
	begin := time.Now()
	time.Sleep(time.Millisecond)
	a.ChildInterval("spanning-tree", begin, time.Now())
	a.End()
	root.End()

	e := tr.Export()
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(e.Spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(e.Spans))
	}
	if e.Spans[0].Name != "bcc" || e.Spans[0].Parent != -1 {
		t.Errorf("first span = %+v, want root bcc", e.Spans[0])
	}
	att := e.SpansNamed("attempt")
	if len(att) != 1 || att[0].Labels["attempt"] != "0" {
		t.Errorf("attempt span = %+v", att)
	}
	ph := e.SpansNamed("spanning-tree")
	if len(ph) != 1 || ph[0].Parent != att[0].ID {
		t.Errorf("phase span = %+v, want child of %d", ph, att[0].ID)
	}
	if ph[0].DurationNs <= 0 {
		t.Errorf("phase duration %d, want > 0", ph[0].DurationNs)
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	tr := NewTrace()
	_, s := StartSpan(ContextWithTrace(context.Background(), tr), "x")
	s.End()
	s.End()
	if n := len(tr.Export().Spans); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestNilSpanIsInert(t *testing.T) {
	var s *Span
	// None of these may panic.
	s.SetLabel("k", "v")
	s.ChildInterval("p", time.Now(), time.Now())
	s.End()
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("StartSpan without a trace returned a live span")
	}
	if ctx != context.Background() {
		t.Fatal("StartSpan without a trace replaced the context")
	}
}

func TestStartSpanNesting(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	ctx, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	outer.End()
	e := tr.Export()
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	in, out := e.SpansNamed("inner"), e.SpansNamed("outer")
	if len(in) != 1 || len(out) != 1 || in[0].Parent != out[0].ID || out[0].Parent != -1 {
		t.Fatalf("inner span %+v not nested under outer %+v", in, out)
	}
}

func TestValidateCatchesEscapes(t *testing.T) {
	bad := &TraceExport{Spans: []SpanExport{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, DurationNs: 100},
		{ID: 1, Parent: 0, Name: "child", StartNs: 50, DurationNs: 100}, // escapes root
	}}
	if bad.Validate() == nil {
		t.Error("escaping child not detected")
	}
	orphan := &TraceExport{Spans: []SpanExport{
		{ID: 1, Parent: 7, Name: "child", StartNs: 0, DurationNs: 1},
	}}
	if orphan.Validate() == nil {
		t.Error("missing parent not detected")
	}
	neg := &TraceExport{Spans: []SpanExport{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, DurationNs: -1},
	}}
	if neg.Validate() == nil {
		t.Error("negative duration not detected")
	}
}

func TestTraceExportJSONShape(t *testing.T) {
	e := &TraceExport{Spans: []SpanExport{
		{ID: 0, Parent: -1, Name: "bcc", StartNs: 1, DurationNs: 2, Labels: map[string]string{"a": "b"}},
	}}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"spans":[{"id":0,"parent":-1,"name":"bcc","start_ns":1,"duration_ns":2,"labels":{"a":"b"}}]}`
	if string(b) != want {
		t.Errorf("JSON = %s\nwant  %s", b, want)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), "root")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				_, s := StartSpan(ctx, "work")
				s.SetLabel("j", "x")
				s.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	e := tr.Export()
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate after concurrent spans: %v", err)
	}
	if got := len(e.SpansNamed("work")); got != 800 {
		t.Fatalf("exported %d work spans, want 800", got)
	}
}
