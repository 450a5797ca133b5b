package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bicc"
	"bicc/internal/service"
)

// tinySizes shrink every workload so that the whole suite runs in seconds.
var tinySizes = sizes{
	RandomN: 2000, RandomM: 10000,
	TorusSide: 24,
	ColdN:     500, ColdM: 2000, ColdPool: 4, ColdWarmOps: 2,
	ChainBlocks: 200, ChainClique: 5, Batch: 4, Window: 16, MutWarmOps: 1,
}

// inProcess is bccd's handler served by httptest instead of a child
// process.
type inProcess struct {
	srv *service.Server
	ts  *httptest.Server
}

func (b *inProcess) URL() string { return b.ts.URL }
func (b *inProcess) Pid() string { return "self" }
func (b *inProcess) Stop() error {
	b.ts.Close()
	return b.srv.CloseDurability()
}

// inProcessStarter configures service.New as bccd's default flags do
// (-queue -1, -plan adaptive); wrap, when not nil, sits between the client
// and the handler.
func inProcessStarter(wrap func(http.Handler) http.Handler) startFunc {
	return func(ctx context.Context, dataDir string) (backend, error) {
		srv := service.New(service.Config{Queue: -1, PlanMode: service.PlanAdaptive})
		if dataDir != "" {
			if _, err := srv.EnableDurability(service.DurabilityConfig{Dir: dataDir}); err != nil {
				return nil, err
			}
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		return &inProcess{srv, httptest.NewServer(h)}, nil
	}
}

func testConfig(t *testing.T, traced bool) *config {
	cfg := &config{
		seed:    1,
		seconds: 300 * time.Millisecond,
		procs:   min(2, runtime.NumCPU()),
		clients: min(2, runtime.NumCPU()),
		setups:  2,
		sizes:   tinySizes,
		work:    t.TempDir(),
		start:   inProcessStarter(nil),
		solve:   bicc.BiconnectedComponents,
	}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

func findWorkload(t *testing.T, name string) workload {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		t.Fatalf("no workload %s", name)
	}
	return workloads[i]
}

// spec is BENCHMARK.json as the benchmark's runner reads it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) (*spec, []byte) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s, data
}

func TestSpecIsValid(t *testing.T) {
	s, data := readSpec(t)
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes, want the 6 keys within 64 KiB", len(top), len(data))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" || len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("paths %v, command %v", s.Paths, s.Command)
	}
	for _, arg := range s.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || len(arg) > 200 {
			t.Errorf("command argument %q", arg)
		}
	}

	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !validName(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, code runs %s", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound")
	}
	for _, m := range append(e2e, s.PerLayer...) {
		name(m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the code's catalog")
	}
	if !slices.Equal(s.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code's catalog")
	}
}

// validName reports whether s is a valid metric or workload name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.' and
// '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && strings.ContainsRune("_.-", r):
		default:
			return false
		}
	}
	return true
}

func validUnit(u string) bool {
	if u == "" || len(u) > 16 {
		return false
	}
	for _, r := range u {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("_/%.-", r)) {
			return false
		}
	}
	return true
}

// TestEveryMetricEmitted runs every workload, shrunk, untraced and traced,
// and checks that each run answers correctly and emits exactly the metrics
// BENCHMARK.json names, with their units; end-to-end values are never 0.
func TestEveryMetricEmitted(t *testing.T) {
	s, _ := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				rec, err := runWorkload(context.Background(), testConfig(t, traced), w)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Errors)
				}
				want := map[string]string{}
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
				if !traced {
					want = map[string]string{}
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(rec.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := rec.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", name)
					case m.Unit != unit:
						t.Errorf("%s in %s, want %s", name, m.Unit, unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v", name, m.Value)
					case strings.HasPrefix(name, "kernel.") && m.Value <= 0:
						t.Errorf("%s = %v: every traced run times the kernels", name, m.Value)
					}
				}
			})
		}
	}
}

func TestCorruptedLabelCounts(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.solve = func(g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
		res, err := bicc.BiconnectedComponents(g, opt)
		if err == nil && opt.Algorithm == bicc.TVOpt {
			res.EdgeComponent[0]++
		}
		return res, err
	}
	rec, err := runWorkload(context.Background(), cfg, findWorkload(t, "engines-random"))
	if err != nil {
		t.Fatal(err)
	}
	checkCounted(t, rec)
}

func TestWrongServerAnswerCounts(t *testing.T) {
	cfg := testConfig(t, false)
	// Every backend answers its set-up's warm-up queries honestly, then
	// reports one block too many.
	cfg.start = inProcessStarter(func(h http.Handler) http.Handler {
		var queries atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/bcc" || queries.Add(1) <= int64(cfg.sizes.ColdWarmOps) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Error(err)
				return
			}
			if n, ok := body["num_components"].(float64); ok {
				body["num_components"] = n + 1
			}
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(body)
		})
	})
	rec, err := runWorkload(context.Background(), cfg, findWorkload(t, "service-cold"))
	if err != nil {
		t.Fatal(err)
	}
	checkCounted(t, rec)
}

func checkCounted(t *testing.T, rec record) {
	t.Helper()
	if rec.Correct || rec.Failed == 0 || rec.ErrorRate <= 0 || rec.Failed > rec.Attempted {
		t.Fatalf("correct %v, attempted %d, failed %d, error rate %v: the wrong answers were not counted",
			rec.Correct, rec.Attempted, rec.Failed, rec.ErrorRate)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		a      []float64
		higher bool
		want   string
	}{
		{"same runs", base, base, false, "within"},
		{"slower beyond the bound", scale(1.2), base, false, "worse"},
		{"slower within the bound", scale(1.05), base, false, "within"},
		{"faster in every pair", scale(0.9), base, false, "better"},
		{"higher is better", scale(0.8), base, true, "worse"},
		{"parent spread wider than the bound", scale(1.2), noisy, false, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, 0.1, tc.higher); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
