package bicc

// Verify, ReconstructResult, and SparseCertificate form an oracle for any
// edge labeling, including one produced by the degraded fallback path: the
// oracle must not care how a labeling was produced. These tests pin that:
// for every engine, degraded or not, a correct labeling passes the oracle
// and a tampered one fails it.

import (
	"context"
	"testing"

	"bicc/internal/faults"
)

// parallelAlgorithms returns the presets the sequential fallback
// supervises: every engine that runs on the parallel runtime.
func parallelAlgorithms() []Algorithm {
	var out []Algorithm
	for _, a := range Algorithms() {
		if e, _ := a.engine(); e.Parallel {
			out = append(out, a)
		}
	}
	return out
}

// panicSite is a fault site the given parallel engine is guaranteed to
// cross: the TV family shares the core pipeline, fast-bcc has its own
// skeleton phase.
func panicSite(algo Algorithm) string {
	if algo == FastBCC {
		return "fastbcc.skeleton"
	}
	return "core.pipeline"
}

// oracleCheck runs the full scrubber oracle over a labeling: reconstruct,
// verify, and cross-check the aggregates against a decomposition of the
// sparse certificate.
func oracleCheck(t *testing.T, g *Graph, algo Algorithm, edgeComp []int32, wantComponents int) {
	t.Helper()
	res, err := ReconstructResult(g, algo, edgeComp)
	if err != nil {
		t.Fatalf("%v: reconstruct: %v", algo, err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatalf("%v: verify rejected a correct labeling: %v", algo, err)
	}
	if res.NumComponents != wantComponents {
		t.Fatalf("%v: reconstructed %d components, want %d", algo, res.NumComponents, wantComponents)
	}
	cert, _, err := SparseCertificate(g, nil)
	if err != nil {
		t.Fatalf("%v: certificate: %v", algo, err)
	}
	cres, err := BiconnectedComponents(cert, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatalf("%v: certificate decomposition: %v", algo, err)
	}
	if cres.NumComponents != res.NumComponents {
		t.Fatalf("%v: certificate says %d components, labeling says %d",
			algo, cres.NumComponents, res.NumComponents)
	}
	if ca, ra := cres.ArticulationPoints(), res.ArticulationPoints(); len(ca) != len(ra) {
		t.Fatalf("%v: certificate says %d articulation points, labeling says %d",
			algo, len(ca), len(ra))
	}
}

// TestOracleAcceptsEveryEngine runs every engine over a mix of
// graphs and feeds its labeling through the oracle.
func TestOracleAcceptsEveryEngine(t *testing.T) {
	graphs := []*Graph{triangleBridge(t)}
	for seed := int64(1); seed <= 3; seed++ {
		g, err := RandomConnectedGraph(60, 150, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			res, err := BiconnectedComponents(g, &Options{Algorithm: algo, Procs: 4})
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			if res.Degraded {
				t.Fatalf("%v degraded with no fault injected: %v", algo, res.DegradedCause)
			}
			oracleCheck(t, g, algo, res.EdgeComponent, want.NumComponents)
		}
	}
}

// TestOracleAcceptsDegradedResults forces every parallel engine through the
// sequential fallback and proves the degraded labeling still satisfies the
// oracle — Verify must care about the labeling, not its provenance.
func TestOracleAcceptsDegradedResults(t *testing.T) {
	defer faults.Deactivate()
	g, err := RandomConnectedGraph(50, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range parallelAlgorithms() {
		faults.Activate(&faults.Plan{Seed: 1,
			Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, panicSite(algo))}})
		res, err := BiconnectedComponentsCtx(context.Background(), g,
			&Options{Algorithm: algo, Procs: 4, Fallback: FallbackSequential})
		faults.Deactivate()
		if err != nil {
			t.Fatalf("%v: fallback did not absorb the fault: %v", algo, err)
		}
		if !res.Degraded || res.DegradedCause == nil {
			t.Fatalf("%v: result not marked degraded (%v)", algo, res.DegradedCause)
		}
		if err := Verify(g, res); err != nil {
			t.Fatalf("%v: verify rejected a degraded result: %v", algo, err)
		}
		// The scrubber reconstructs from the persisted labeling under the
		// originally-requested algorithm: the degraded labeling must hold up.
		oracleCheck(t, g, algo, res.EdgeComponent, want.NumComponents)
	}
}

// TestOracleRejectsTamperedLabelings flips one label in each engine's
// output — including a degraded one — and proves Verify catches it. A
// verifier that accepts rot would turn the scrubber's repair ladder into a
// corruption amplifier.
func TestOracleRejectsTamperedLabelings(t *testing.T) {
	defer faults.Deactivate()
	g := triangleBridge(t) // edges 0..2 form the triangle block, edge 3 is the bridge
	for _, algo := range Algorithms() {
		res, err := BiconnectedComponents(g, &Options{Algorithm: algo, Procs: 2})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		tampered := *res
		tampered.EdgeComponent = append([]int32(nil), res.EdgeComponent...)
		tampered.EdgeComponent[3] = tampered.EdgeComponent[0] // merge bridge into the triangle
		if err := Verify(g, &tampered); err == nil {
			t.Fatalf("%v: verify accepted a tampered labeling", algo)
		}
	}

	// Degraded flavor: tamper a fallback-produced result.
	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, panicSite(FastBCC))}})
	res, err := BiconnectedComponentsCtx(context.Background(), g,
		&Options{Algorithm: FastBCC, Procs: 2, Fallback: FallbackSequential})
	faults.Deactivate()
	if err != nil || !res.Degraded {
		t.Fatalf("degraded run: err=%v degraded=%v", err, res != nil && res.Degraded)
	}
	res.EdgeComponent[3] = res.EdgeComponent[0]
	if err := Verify(g, res); err == nil {
		t.Fatal("verify accepted a tampered degraded labeling")
	}
}

// TestReconstructRejectsMalformedLabelings pins the reconstruct half of the
// oracle: a labeling whose length or ids cannot belong to the graph must
// error, not fabricate a Result.
func TestReconstructRejectsMalformedLabelings(t *testing.T) {
	g := triangleBridge(t)
	res, err := BiconnectedComponents(g, &Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructResult(g, Sequential, res.EdgeComponent[:2]); err == nil {
		t.Error("short labeling accepted")
	}
	bad := append([]int32(nil), res.EdgeComponent...)
	bad[0] = -1
	if _, err := ReconstructResult(g, Sequential, bad); err == nil {
		t.Error("negative block id accepted")
	}
}
