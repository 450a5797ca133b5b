package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"

	"bicc"
	"bicc/internal/conncomp"
	"bicc/internal/eulertour"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/listrank"
	"bicc/internal/plan"
	"bicc/internal/prefix"
	"bicc/internal/psort"
	"bicc/internal/spantree"
	"bicc/internal/treecomp"
)

// engines are the five engines the engines-* workloads call, in the order
// of engineNames.
var engines = []bicc.Algorithm{bicc.Sequential, bicc.TVSMP, bicc.TVOpt, bicc.TVFilter, bicc.FastBCC}

// kernelReps is how many times the traced run times each kernel at each
// worker count; the median is reported.
const kernelReps = 3

// runEnginesRandom runs the engines on the paper's Fig. 3 input: a
// connected G(n, m).
func runEnginesRandom(ctx context.Context, cfg *config) (*outcome, error) {
	return runEngines(ctx, cfg, gen.RandomConnected(cfg.sizes.RandomN, cfg.sizes.RandomM, cfg.seed))
}

// runEnginesTorus runs the engines on a side×side torus whose vertex ids are
// permuted by the seed, so that ids carry no locality the engines could
// exploit.
func runEnginesTorus(ctx context.Context, cfg *config) (*outcome, error) {
	el := gen.Torus(cfg.sizes.TorusSide, cfg.sizes.TorusSide)
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(int(el.N))
	for i, e := range el.Edges {
		el.Edges[i] = graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	return runEngines(ctx, cfg, el)
}

// solveRec is one timed engine call of a round.
type solveRec struct {
	engine     string
	start, end time.Time
	phases     []bicc.PhaseTiming
}

// runEngines is the engines-* loop: rounds that call every engine once at
// cfg.procs workers, in process, rotating which engine goes first, with a
// forced GC before each call so that no engine pays for another's garbage.
// Every answer is compared with a sequential solve made during set-up.
func runEngines(ctx context.Context, cfg *config, el *graph.EdgeList) (*outcome, error) {
	o := newOutcome()
	o.params["n"] = int(el.N)
	o.params["m"] = len(el.Edges)
	o.params["procs"] = cfg.procs

	// Set-up is what a library user pays before the first useful answer:
	// NewGraph's validation plus one warm-up solve per engine.
	var g *bicc.Graph
	var setup []float64
	for k := 0; k < cfg.setups; k++ {
		g = nil
		runtime.GC()
		start := time.Now()
		gg, err := bicc.NewGraph(int(el.N), el.Edges)
		if err != nil {
			return nil, fmt.Errorf("NewGraph: %w", err)
		}
		for _, a := range engines {
			if _, err := cfg.solve(gg, &bicc.Options{Algorithm: a, Procs: cfg.procs}); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", a, err)
			}
		}
		setup = append(setup, time.Since(start).Seconds())
		g = gg
	}
	o.setQuantile("setup_s", setup, 0.5)
	oracle, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	loop := cfg.seconds
	if cfg.tr != nil {
		start := time.Now()
		if err := runKernels(ctx, cfg, el, o); err != nil {
			return nil, err
		}
		loop = max(cfg.seconds-time.Since(start), cfg.seconds/2)
	}

	// A traced run alternates traced and untraced rounds, so the two halves
	// see the same machine state and their difference is the tracing cost.
	var rounds, traced, untraced []float64
	cfg.probe.pid = "self"
	defer func() { cfg.probe.pid = "" }()
	begin, spent := time.Now(), cfg.probe.total
	deadline := begin.Add(loop)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var recs []solveRec
		var total time.Duration
		for k := range engines {
			a := engines[(r+k)%len(engines)]
			runtime.GC()
			start := time.Now()
			res, err := cfg.solve(g, &bicc.Options{Algorithm: a, Procs: cfg.procs})
			end := time.Now()
			o.attempted++
			if err != nil {
				o.fail("round %d %s: %v", r, a, err)
				continue
			}
			if msg := sameDecomposition(res, oracle); msg != "" {
				o.fail("round %d %s: %s", r, a, msg)
			}
			total += end.Sub(start)
			recs = append(recs, solveRec{a.String(), start, end, res.Phases})
		}
		if cfg.probe.due() {
			cfg.probe.run()
		}
		ms := float64(total) / 1e6
		rounds = append(rounds, ms)
		if cfg.tr != nil && r%2 == 0 {
			traced = append(traced, ms)
			recordRound(cfg.tr, recs)
		} else {
			untraced = append(untraced, ms)
		}
	}
	cfg.probe.run()
	wall := cfg.probe.since(begin, spent)

	o.setQuantile("op_ms_p50", rounds, 0.5)
	o.setQuantile("op_ms_p90", rounds, 0.9)
	o.set("ops_per_s", float64(len(rounds))/wall, len(rounds))
	o.params["rounds"] = len(rounds)

	if cfg.tr != nil {
		x := indexSpans(cfg.tr.snapshot())
		setEngineLayers(o, x)
		setKernelLayers(o, x, cfg.procs)
		setOverhead(o, traced, untraced)
	}
	return o, nil
}

// sameDecomposition compares an engine's answer with the oracle's. Every
// engine emits the same canonical block numbering, so labels must match
// exactly.
func sameDecomposition(got, want *bicc.Result) string {
	if got.NumComponents != want.NumComponents {
		return fmt.Sprintf("%d blocks, want %d", got.NumComponents, want.NumComponents)
	}
	if len(got.EdgeComponent) != len(want.EdgeComponent) {
		return fmt.Sprintf("%d edge labels, want %d", len(got.EdgeComponent), len(want.EdgeComponent))
	}
	for i, c := range got.EdgeComponent {
		if c != want.EdgeComponent[i] {
			return fmt.Sprintf("edge %d in block %d, want %d", i, c, want.EdgeComponent[i])
		}
	}
	return ""
}

// recordRound turns one round's solves and their Result.Phases into spans:
// round → solve.<engine> → phase.<engine>.<phase>. Phases are consecutive
// laps, laid out from the start of the call; whatever the phases do not
// cover is the solve span's self time.
func recordRound(tr *tracer, recs []solveRec) {
	if len(recs) == 0 {
		return
	}
	op := tr.newOp()
	root := tr.add(op, -1, "round", recs[0].start, recs[len(recs)-1].end)
	for _, s := range recs {
		id := tr.add(op, root, "solve."+s.engine, s.start, s.end)
		at := s.start
		for _, ph := range s.phases {
			tr.add(op, id, "phase."+s.engine+"."+ph.Name, at, at.Add(ph.Duration))
			at = at.Add(ph.Duration)
		}
	}
}

// setOverhead reports how much slower traced operations ran than the
// untraced ones interleaved with them.
func setOverhead(o *outcome, traced, untraced []float64) {
	pct := 0.0
	if u := quantile(untraced, 0.5); u > 0 {
		pct = (quantile(traced, 0.5)/u - 1) * 100
	}
	o.set("trace.overhead_pct", pct, len(traced)+len(untraced))
}

// kernel is one internal entry point timed on its own. run returns a
// checksum of its output that must not depend on the worker count or the
// repetition.
type kernel struct {
	name  string
	reset func() // restores an input that run modifies; not timed
	run   func(p int) int64
}

// kernelSuite prepares the twelve kernel calls on the workload's graph. The
// tour and tree kernels take a fixed BFS forest built with one worker, so
// every repetition sees the same input.
func kernelSuite(el *graph.EdgeList, seed int64) ([]kernel, int, error) {
	csr := graph.ToCSR(1, el)
	bfs := spantree.BFS(1, csr)
	levels := 0
	for _, l := range bfs.Level {
		levels = max(levels, int(l)+1)
	}
	seq := eulertour.DFSOrderParallel(1, el.Edges, bfs)
	td, err := treecomp.Compute(1, seq)
	if err != nil {
		return nil, 0, fmt.Errorf("kernel input: %w", err)
	}
	isTree := bfs.TreeEdgeMark(1, len(el.Edges))
	pairs := make([]psort.Pair, 2*len(el.Edges))
	sums := make([]int32, 2*len(el.Edges))
	next, head := randomList(2*(int(el.N)-1), seed)

	ks := []kernel{
		{"graph.ToCSR", nil, func(p int) int64 {
			c := graph.ToCSR(p, el)
			return sum32(c.Off) + sum32(c.Adj)
		}},
		{"spantree.BFS", nil, func(p int) int64 { return sum32(spantree.BFS(p, csr).Level) }},
		{"spantree.WorkStealing", nil, func(p int) int64 {
			f := spantree.WorkStealing(p, csr)
			if slices.Contains(f.Parent, -1) {
				return -1 // a vertex the traversal never reached
			}
			return int64(len(f.Roots))
		}},
		{"spantree.SV", nil, func(p int) int64 { return int64(len(spantree.SV(p, el.N, el.Edges).TreeEdges)) }},
		{"conncomp.ShiloachVishkin", nil, func(p int) int64 {
			reps := int64(0)
			for v, l := range conncomp.ShiloachVishkin(p, el.N, el.Edges) {
				if int(l) == v {
					reps++
				}
			}
			return reps
		}},
		{"psort.SampleSortPairs", func() {
			for i, e := range el.Edges {
				pairs[2*i] = psort.Pair{Key: uint64(uint32(e.U))<<32 | uint64(uint32(e.V)), Val: int32(2 * i)}
				pairs[2*i+1] = psort.Pair{Key: uint64(uint32(e.V))<<32 | uint64(uint32(e.U)), Val: int32(2*i + 1)}
			}
		}, func(p int) int64 {
			psort.SampleSortPairs(p, pairs)
			for i := 1; i < len(pairs); i++ {
				if pairs[i-1].Key > pairs[i].Key {
					return -1
				}
			}
			return int64(len(pairs))
		}},
		{"prefix.InclusiveSum32", func() {
			for i := range sums {
				sums[i] = 1
			}
		}, func(p int) int64 { return int64(prefix.InclusiveSum32(p, sums)) }},
		{"listrank.RanksHJ", nil, func(p int) int64 {
			ranks, err := listrank.RanksHJ(p, next, head)
			if err != nil {
				return -1
			}
			return sum32(ranks)
		}},
		{"eulertour.DFSOrderParallel", nil, func(p int) int64 {
			s := eulertour.DFSOrderParallel(p, el.Edges, bfs)
			return int64(s.NumArcs()) + sum32(s.EdgeID)
		}},
		{"treecomp.Compute", nil, func(p int) int64 {
			t, err := treecomp.Compute(p, seq)
			if err != nil {
				return -1
			}
			return sum32(t.Pre) + sum32(t.Size)
		}},
		{"treecomp.LowHigh", nil, func(p int) int64 {
			low, high := treecomp.LowHigh(p, td, el.Edges, isTree)
			return sum32(low) + sum32(high)
		}},
		{"plan.Extract", nil, func(p int) int64 {
			f := plan.Extract(p, el)
			return int64(f.N+f.M) + int64(f.SizeClass*100+f.DensityClass*10+f.DiamClass)
		}},
	}
	return ks, levels, nil
}

// randomList returns a successor array over n nodes that visits them in a
// seeded random order, and its head: the worst case for list ranking's
// locality.
func randomList(n int, seed int64) ([]int32, int32) {
	if n < 1 {
		return nil, 0
	}
	order := rand.New(rand.NewSource(seed)).Perm(n)
	next := make([]int32, n)
	for i, v := range order {
		if i+1 < n {
			next[v] = int32(order[i+1])
		} else {
			next[v] = -1
		}
	}
	return next, int32(order[0])
}

func sum32(xs []int32) int64 {
	s := int64(0)
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// runKernels times every kernel at one worker and at cfg.procs workers,
// alternating the two, and records one span per call under a "kernels"
// operation. Outputs must agree across worker counts and repetitions.
func runKernels(ctx context.Context, cfg *config, el *graph.EdgeList, o *outcome) error {
	ks, levels, err := kernelSuite(el, cfg.seed)
	if err != nil {
		return err
	}
	o.set("kernel.spantree.BFS_levels", float64(levels), 1)
	procs := []int{1}
	if cfg.procs > 1 {
		procs = append(procs, cfg.procs)
	}
	type call struct {
		name       string
		start, end time.Time
	}
	var calls []call
	for _, k := range ks {
		var want int64
		for rep := 0; rep < kernelReps; rep++ {
			for _, p := range procs {
				if err := ctx.Err(); err != nil {
					return err
				}
				if k.reset != nil {
					k.reset()
				}
				runtime.GC()
				start := time.Now()
				got := k.run(p)
				end := time.Now()
				o.attempted++
				if rep == 0 && p == 1 {
					want = got
				}
				if got < 0 || got != want {
					o.fail("kernel %s p=%d: output checksum %d, want %d", k.name, p, got, want)
				}
				calls = append(calls, call{"kernel." + k.name + ".p" + strconv.Itoa(p), start, end})
			}
		}
	}
	op := cfg.tr.newOp()
	root := cfg.tr.add(op, -1, "kernels", calls[0].start, calls[len(calls)-1].end)
	for _, c := range calls {
		cfg.tr.add(op, root, c.name, c.start, c.end)
	}
	return nil
}

// setKernelLayers reports each kernel's median time at procs workers and its
// speedup over one worker.
func setKernelLayers(o *outcome, x *spanIndex, procs int) {
	for _, k := range kernelNames {
		p1 := x.durations("kernel." + k + ".p1")
		pn := x.durations("kernel." + k + ".p" + strconv.Itoa(procs))
		o.setQuantile("kernel."+k+"_ms", pn, 0.5)
		speedup := 0.0
		if t := quantile(pn, 0.5); t > 0 {
			speedup = quantile(p1, 0.5) / t
		}
		o.set("kernel."+k+"_speedup", speedup, len(pn))
	}
}
