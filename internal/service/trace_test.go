package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bicc"
	"bicc/internal/faults"
	"bicc/internal/obs"
)

// postBCCQuery is postBCC with extra URL query parameters on /v1/bcc.
func postBCCQuery(t *testing.T, ts *httptest.Server, req bccRequest, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/bcc?"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestTraceEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	q := bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt", Procs: 2}

	// A plain query carries no trace field.
	resp, body := postBCC(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("untraced response leaked a trace: %s", body)
	}

	// The same query with ?trace=1 is a cache hit and returns the span
	// breakdown of the computation that produced the cached result.
	resp, body = postBCCQuery(t, ts, q, "trace=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out bccResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Errorf("second identical query not served from cache")
	}
	if out.Trace == nil {
		t.Fatalf("?trace=1 response has no trace: %s", body)
	}
	if err := out.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, body)
	}
	assertSpan(t, out.Trace, "bcc", 1)
	assertSpan(t, out.Trace, "admission", 1)
	attempts := out.Trace.SpansNamed("tv-opt")
	if len(attempts) != 1 {
		t.Fatalf("want 1 tv-opt attempt span, got %d: %s", len(attempts), body)
	}
	if attempts[0].Labels["attempt"] != "0" {
		t.Errorf("attempt label = %q, want 0", attempts[0].Labels["attempt"])
	}
	// The engine run must expose the paper's pipeline steps as child spans
	// of the attempt.
	for _, phase := range []string{"spanning-tree", "euler-tour", "root", "low-high", "label-edge", "connected-components"} {
		sp := out.Trace.SpansNamed(phase)
		if len(sp) != 1 {
			t.Errorf("phase %q: %d spans, want 1", phase, len(sp))
			continue
		}
		if sp[0].Parent != attempts[0].ID {
			t.Errorf("phase %q nested under span %d, want attempt %d", phase, sp[0].Parent, attempts[0].ID)
		}
	}
	// Phases and spans are two views of the same stopwatch laps: the JSON
	// phase list must agree with the span durations exactly.
	if len(out.Phases) == 0 {
		t.Fatal("response has no phases")
	}
	for _, ph := range out.Phases {
		name := ph["name"].(string)
		ns := int64(ph["ns"].(float64))
		sp := out.Trace.SpansNamed(name)
		if len(sp) != 1 || sp[0].DurationNs != ns {
			t.Errorf("phase %q: %dns in phases, spans %+v", name, ns, sp)
		}
	}
}

// TestTraceUnderFaultInjection drives a query whose parallel attempts are
// killed by injected panics: the degraded response must still carry a
// complete, well-nested trace showing both failed attempts and the
// sequential fallback that answered.
func TestTraceUnderFaultInjection(t *testing.T) {
	defer faults.Deactivate()
	_, ts := newTestServer(t, Config{AttemptTimeout: 2 * time.Second})
	up := uploadGraph(t, ts, testGraph(t), "")

	faults.Activate(&faults.Plan{Seed: 1,
		Rules: []*faults.Rule{faults.NewRule(faults.KindPanic, "core.pipeline")}})
	resp, body := postBCCQuery(t, ts,
		bccRequest{Graph: up.Fingerprint, Algorithm: "tv-opt", Procs: 2}, "trace=1")
	faults.Deactivate()

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out bccResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("response not degraded despite injected panics: %s", body)
	}
	if out.Trace == nil {
		t.Fatalf("degraded response has no trace: %s", body)
	}
	if err := out.Trace.Validate(); err != nil {
		t.Fatalf("degraded trace invalid: %v\n%s", err, body)
	}
	// Two parallel attempts, both labeled with their attempt index and the
	// error that killed them.
	attempts := out.Trace.SpansNamed("tv-opt")
	if len(attempts) != 2 {
		t.Fatalf("want 2 failed tv-opt attempt spans, got %d: %s", len(attempts), body)
	}
	for i, a := range attempts {
		if got := a.Labels["attempt"]; got != map[int]string{0: "0", 1: "1"}[i] {
			t.Errorf("attempt %d label = %q", i, got)
		}
		if !strings.Contains(a.Labels["error"], "panic") {
			t.Errorf("attempt %d error label = %q, want a contained panic", i, a.Labels["error"])
		}
	}
	// The sequential fallback ran as attempt 2 and timed its DFS.
	seq := out.Trace.SpansNamed("sequential")
	if len(seq) != 1 {
		t.Fatalf("want 1 sequential fallback span, got %d: %s", len(seq), body)
	}
	if seq[0].Labels["attempt"] != "2" {
		t.Errorf("fallback attempt label = %q, want 2", seq[0].Labels["attempt"])
	}
	dfs := out.Trace.SpansNamed("sequential-dfs")
	if len(dfs) != 1 || dfs[0].Parent != seq[0].ID {
		t.Errorf("sequential-dfs spans = %+v, want one child of %d", dfs, seq[0].ID)
	}
	// The root span records the degradation.
	root := out.Trace.SpansNamed("bcc")
	if len(root) != 1 || root[0].Labels["degraded"] != "true" {
		t.Errorf("root span = %+v, want degraded label", root)
	}
}

func assertSpan(t *testing.T, e *obs.TraceExport, name string, n int) {
	t.Helper()
	if got := len(e.SpansNamed(name)); got != n {
		t.Errorf("span %q: %d occurrences, want %d", name, got, n)
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and checks that the
// service counters and the engine phase histograms are exposed.
func TestMetricsEndpoint(t *testing.T) {
	old := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(old)
	_, ts := newTestServer(t, Config{})
	up := uploadGraph(t, ts, testGraph(t), "")
	if resp, body := postBCC(t, ts, bccRequest{Graph: up.Fingerprint, Algorithm: "tv-smp"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE bicc_requests_total counter",
		"bicc_requests_total 1",
		"bicc_computations_total 1",
		"# TYPE bicc_request_seconds histogram",
		`bicc_request_seconds_count{algorithm="tv-smp"} 1`,
		"# TYPE bicc_phase_seconds histogram",
		`algorithm="tv-smp",phase="spanning-tree"`,
		"# TYPE bicc_breaker_state gauge",
		`bicc_breaker_state{algorithm="tv-opt"} 0`,
		"# TYPE bicc_par_tasks_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// csrConversions reads the process-wide count of edge-list to CSR
// conversions, bicc_csr_conversions_total.
func csrConversions() int64 {
	return obs.Default().Counter("bicc_csr_conversions_total", "").Load()
}

// TestToCSRPhase checks where a graph's conversion shows. An upload builds
// the CSR as the step that checks the graph: its to-csr stage and one
// conversion, after which no query on the graph converts or records a
// to-csr phase. A graph added with no CSR yet, a generated one, shows the
// lazy path: the query whose engine converts it has the conversion as its
// own phase, span and bicc_phase_seconds series, later queries reuse the
// CSR and show none, and TV-SMP never converts. A query's phases stay
// within its elapsed_ns.
func TestToCSRPhase(t *testing.T) {
	old := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(old)
	s, ts := newTestServer(t, Config{})
	query := func(fp, algo string, procs int, toCSR bool) {
		t.Helper()
		resp, body := postBCCQuery(t, ts, bccRequest{Graph: fp, Algorithm: algo, Procs: procs}, "trace=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, resp.StatusCode, body)
		}
		var out bccResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached || len(out.Phases) == 0 || out.Trace == nil {
			t.Fatalf("%s: want a fresh traced computation with phases: %s", algo, body)
		}
		var sum int64
		for _, ph := range out.Phases {
			sum += int64(ph["ns"].(float64))
		}
		if sum > out.ElapsedNs {
			t.Errorf("%s: phases sum to %d ns, past elapsed_ns %d", algo, sum, out.ElapsedNs)
		}
		first := out.Phases[0]["name"] == "to-csr"
		spans := len(out.Trace.SpansNamed("to-csr"))
		if first != toCSR || spans != map[bool]int{false: 0, true: 1}[toCSR] {
			t.Errorf("%s: to-csr first = %v with %d spans, want %v: %s", algo, first, spans, toCSR, body)
		}
	}
	engines := []struct {
		algo  string
		procs int
		toCSR bool // on a graph with no CSR yet
	}{
		{"tv-smp", 2, false},
		{"tv-opt", 2, true},
		{"fast-bcc", 2, false},
		{"tv-filter", 1, false},
		{"sequential", 1, false},
	}

	var text bytes.Buffer
	if err := bicc.WriteGraph(&text, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	before := csrConversions()
	code, up, msg := postRawGraph(t, ts, "format=text", text.Bytes())
	if code != http.StatusOK || len(up.Phases) < 2 || up.Phases[1]["name"] != "to-csr" {
		t.Fatalf("upload: %d %s, want a to-csr stage after decode", code, msg)
	}
	for _, c := range engines {
		query(up.Fingerprint, c.algo, c.procs, false)
	}
	if n := csrConversions() - before; n != 1 {
		t.Fatalf("an upload and its queries made %d conversions, want 1", n)
	}

	lazy, err := bicc.RandomConnectedGraph(64, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := s.AddGraph("lazy", lazy)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range engines {
		query(fp, c.algo, c.procs, c.toCSR)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bicc_phase_seconds_count{algorithm="tv-opt",phase="to-csr"}`,
		"# TYPE bicc_csr_conversions_total counter",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
