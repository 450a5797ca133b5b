package bicc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"bicc"
	"bicc/internal/service"
)

// TestResolveAlgorithmMatchesService checks that the library and bccd
// resolve auto by one rule: for procs 1 and 2, on graphs on both sides of
// n + m = 2^20, ResolveAlgorithm names the engine that bccd's ?explain=1
// reports, and runs, for an auto query pinned to the same procs. The
// decision reads only n and m, so isolated vertices stand in for size.
func TestResolveAlgorithmMatchesService(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()

	triangle := []bicc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	dense, err := bicc.RandomConnectedGraph(100, 450, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*bicc.Graph{"G(100, 450)": dense}
	for _, n := range []int{1<<20 - 4, 1 << 20} {
		g, err := bicc.NewGraph(n, triangle)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("n=%d m=3", n)] = g
	}
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := bicc.WriteGraphBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		var up struct {
			Fingerprint string `json:"fingerprint"`
		}
		postJSON(t, ts.URL+"/v1/graphs?format=binary", &buf, &up)
		for _, p := range []int{1, 2} {
			want := bicc.ResolveAlgorithm(g, bicc.Auto, p).String()
			body, _ := json.Marshal(map[string]any{"graph": up.Fingerprint, "algorithm": "auto", "procs": p})
			var out struct {
				Algorithm string `json:"algorithm"`
				Plan      struct {
					Decision *struct {
						Engine string `json:"engine"`
						Procs  int    `json:"procs"`
					} `json:"decision"`
				} `json:"plan"`
			}
			postJSON(t, ts.URL+"/v1/bcc?explain=1", bytes.NewReader(body), &out)
			d := out.Plan.Decision
			if d == nil {
				t.Fatalf("%s p=%d: bccd ran %s with no planner decision", name, p, out.Algorithm)
			}
			if d.Engine != want || out.Algorithm != want || d.Procs != p {
				t.Errorf("%s p=%d: ResolveAlgorithm says %s, bccd planned %s at p=%d and ran %s",
					name, p, want, d.Engine, d.Procs, out.Algorithm)
			}
		}
	}
}

// postJSON posts body to url, requires 200 and decodes the answer into out.
func postJSON(t *testing.T, url string, body io.Reader, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
