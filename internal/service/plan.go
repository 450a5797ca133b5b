package service

import (
	"fmt"

	"bicc"
	"bicc/internal/par"
	"bicc/internal/plan"
)

// Plan modes accepted by Config.PlanMode and the bccd -plan flag.
const (
	// PlanOff keeps the static §4 rule for Auto queries (the default, and
	// the pre-planner behavior byte for byte).
	PlanOff = "off"
	// PlanAdaptive plans engine and parallelism per request from the graph's
	// vertex and edge counts, scored by the planner's fitted cost model.
	PlanAdaptive = "adaptive"
)

// ParsePlanMode validates a -plan flag value, normalizing "" to off.
func ParsePlanMode(s string) (string, error) {
	switch s {
	case "", PlanOff:
		return PlanOff, nil
	case PlanAdaptive:
		return s, nil
	}
	return "", fmt.Errorf("unknown plan mode %q (valid: %s, %s)", s, PlanOff, PlanAdaptive)
}

// newPlanner builds the per-server planner. Candidates are filtered by the
// PR 2 circuit breakers: an open breaker removes its engine from the slate,
// through the non-mutating State check, so planning never consumes
// half-open probe slots.
func (s *Server) newPlanner() *plan.Planner {
	return plan.New(plan.Config{
		Registry: s.metrics,
		Allow: func(engine string) bool {
			b := s.breakers[engine]
			return b == nil || b.State() != BreakerOpen
		},
	})
}

// planExplain is the ?explain=1 response section: the planner's inputs and
// the decision, echoed so callers can audit why their query ran where it
// did. Engine and Procs always carry what was dispatched, whatever the mode.
type planExplain struct {
	Mode     string         `json:"mode"`
	Engine   string         `json:"engine"`
	Procs    int            `json:"procs"`
	Features *plan.Features `json:"features,omitempty"`
	Decision *plan.Decision `json:"decision,omitempty"`
}

// planDecide resolves an Auto request on g through the planner: procs > 0
// pins the parallelism degree, 0 lets the planner choose it. explain asks
// for the scored candidate slate. It reads g's counts alone, so it costs
// the same on every graph and, without explain, allocates nothing.
func (s *Server) planDecide(g *bicc.Graph, procs int, explain bool) (bicc.Algorithm, int, plan.Features, plan.Decision) {
	f := plan.Of(g.NumVertices(), g.NumEdges())
	d := s.planner.Decide(f, procs, explain)
	a, err := bicc.ParseAlgorithm(d.Engine)
	if err != nil || a == bicc.Auto {
		// Unreachable with the current engine set; degrade to the static
		// rule rather than dispatch something unparseable.
		return bicc.ResolveAlgorithm(g, bicc.Auto, procs), par.Procs(procs), f, d
	}
	return a, d.Procs, f, d
}
