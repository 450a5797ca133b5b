package engine_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"bicc"
	"bicc/internal/engine"
	"bicc/internal/obs"
	"bicc/internal/plan"
	"bicc/internal/service"
)

// TestTableConsistency holds every place outside the table that an engine
// must appear in to the table itself: its public bicc.Algorithm constant,
// the service's circuit breaker and bicc_request_seconds series, and an
// explicit case in the planner's cost model.
func TestTableConsistency(t *testing.T) {
	constants := map[string]bicc.Algorithm{
		engine.Sequential: bicc.Sequential,
		engine.TVSMP:      bicc.TVSMP,
		engine.TVOpt:      bicc.TVOpt,
		engine.TVFilter:   bicc.TVFilter,
		engine.FastBCC:    bicc.FastBCC,
	}
	if len(constants) != len(engine.All) {
		t.Errorf("%d public constants for %d table entries", len(constants), len(engine.All))
	}

	srv := service.New(service.Config{})
	get := func(path string) string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	metrics := get("/metrics")

	// A decision with procs pinned to 1 scores every engine the planner
	// knows; engineFactor panics on one it has no cost case for.
	pl := plan.New(plan.Config{MaxProcs: 1, Registry: obs.NewRegistry()})
	slate := map[string]bool{}
	for _, c := range pl.Decide(plan.Features{N: 1000, M: 4000}, 1, true).Candidates {
		slate[c.Engine] = true
	}

	for i, e := range engine.All {
		t.Run(e.Name, func(t *testing.T) {
			a, err := bicc.ParseAlgorithm(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != e.Name {
				t.Errorf("ParseAlgorithm(%q).String() = %q", e.Name, a)
			}
			if c, ok := constants[e.Name]; !ok || c != a || bicc.Algorithms()[i] != a {
				t.Errorf("public constant %v does not map to table entry %d (%s)", c, i, e.Name)
			}
			if ok := strings.Contains(metrics, `bicc_breaker_state{algorithm="`+e.Name+`"}`); ok != e.Parallel {
				t.Errorf("breaker present = %v, want %v (parallel)", ok, e.Parallel)
			}
			if !strings.Contains(metrics, `bicc_request_seconds_count{algorithm="`+e.Name+`"}`) {
				t.Error("/metrics has no bicc_request_seconds series")
			}
			if !slate[e.Name] {
				t.Error("the planner never scores this engine: add it to plan.EngineOrder and the prior")
			}
		})
	}
}
