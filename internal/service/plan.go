package service

import (
	"bicc"
	"bicc/internal/plan"
)

// PlanAdaptive was the value of Config.PlanMode that turned the planner on.
//
// Deprecated: every server resolves auto through the planner; PlanMode is
// ignored.
const PlanAdaptive = "adaptive"

// newPlanner builds the per-server planner. Candidates are filtered by the
// circuit breakers: an open breaker removes its engine from the slate,
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
// did. Engine and Procs carry what was dispatched.
type planExplain struct {
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
	if err != nil {
		panic(err) // plan.EngineOrder names only engine-table entries
	}
	return a, d.Procs, f, d
}
