package main

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// metric reads one unlabeled series from p's /metrics.
func (p *bccdProc) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(p.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return 0
}

// TestMemBudgetBoundsDisklessDaemon runs bccd without -data-dir and with a
// -mem-budget smaller than any result: after queries on two graphs the
// cache keeps only the newest result (the entry being inserted is exempt
// from the budget). -mem-budget used to reach the cache only through the
// durability setup, so a diskless daemon kept both.
func TestMemBudgetBoundsDisklessDaemon(t *testing.T) {
	p := startBccd(t, "", "", "-mem-budget", "1")
	for i := 0; i < 2; i++ {
		g, _ := crashGraph(t, i)
		fp, err := p.upload(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.query(fp, "sequential"); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.metric(t, "bicc_cached_results"); n != 1 {
		t.Fatalf("bicc_cached_results = %v, want 1", n)
	}
	if b := p.metric(t, "bicc_result_cache_mem_bytes"); b <= 0 {
		t.Fatalf("bicc_result_cache_mem_bytes = %v, want the one result's bytes", b)
	}
}
