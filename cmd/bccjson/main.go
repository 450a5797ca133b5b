// Command bccjson times every engine on the scaled random instance
// and writes the medians as machine-readable JSON, for CI trend tracking
// and external dashboards.
//
// Usage:
//
//	bccjson [-scale 0.1] [-reps 3] [-p procs] [-sweep 1,4] [-all] [-plan]
//	        [-o FILE] [-addr URL]
//
// By default only the first paper instance (m = 4n) is timed; -all sweeps
// the full Fig. 3 workload. -sweep replaces the single -p worker count
// with a comma-separated list: every parallel algorithm is measured at
// every count (the sequential baseline always runs once at p=1).
// -plan appends synthetic "auto-static" and "auto-plan" rows per
// (instance, procs): the engine each auto-routing policy (the paper's
// static §4 rule vs the feature-based planner) would dispatch, priced at
// the medians already measured. `make bench-json` runs
// `-sweep 1,2,4,8 -all -plan` into the first unused BENCH_N.json.
//
// The report goes to standard output unless -o names a file. bccjson never
// overwrites: an existing -o file is refused before anything is measured,
// so committed BENCH_N.json snapshots stay as they were recorded.
//
// With -addr, the measurements run through a live bccd instead of
// in-process: each instance is uploaded once (content-addressed, so reruns
// are free) and every algorithm is queried -reps times over HTTP. The
// first query per (algorithm, procs) pays the engine run; the rest hit the
// server's cache, so the reported median is end-to-end service latency —
// the number a client of the daemon actually sees — while speedup is still
// computed from the engines' own elapsed_ns. 429s and 503s (admission
// pushback, drains, failovers behind a router) are retried with jittered
// backoff honoring Retry-After, so a benchmark run survives a primary
// failover instead of aborting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bicc"
	"bicc/internal/bench"
	"bicc/internal/engine"
	"bicc/internal/httpretry"
	"bicc/internal/plan"
)

type benchRecord struct {
	Instance  string  `json:"instance"`
	N         int     `json:"n"`
	M         int     `json:"m"`
	Algorithm string  `json:"algorithm"`
	Procs     int     `json:"procs"`
	MedianNs  int64   `json:"median_ns_op"`
	Speedup   float64 `json:"speedup_vs_sequential"`
	// Chosen is set only on the synthetic auto-plan/auto-static rows added
	// by -plan: the concrete engine the policy mapped the auto query to.
	Chosen string `json:"chosen,omitempty"`
}

type benchReport struct {
	Scale      float64       `json:"scale"`
	Reps       int           `json:"reps"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bccjson: ")
	scale := flag.Float64("scale", 0.1, "instance scale relative to the paper's n=1M")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	procs := flag.Int("p", 0, "worker count for the parallel algorithms (0 = GOMAXPROCS)")
	sweep := flag.String("sweep", "", "comma-separated worker counts to sweep (overrides -p)")
	all := flag.Bool("all", false, "time every paper instance, not just m=4n")
	out := flag.String("o", "-", "output file, which must not exist yet (- for stdout)")
	addr := flag.String("addr", "", "measure through a running bccd at this base URL instead of in-process")
	withPlan := flag.Bool("plan", false,
		"derive auto-static and auto-plan rows per (instance, procs) from the measured medians (no extra engine runs)")
	flag.Parse()
	if *out != "-" {
		// Fail before a long run; the O_EXCL open below is the guarantee.
		if _, err := os.Stat(*out); err == nil {
			log.Fatalf("%s already exists; choose a new -o file", *out)
		}
	}

	p := *procs
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	procsList := []int{p}
	if *sweep != "" {
		procsList = nil
		for _, field := range strings.Split(*sweep, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || v < 1 {
				log.Fatalf("bad -sweep entry %q", field)
			}
			procsList = append(procsList, v)
		}
	}
	instances := bench.PaperInstances(*scale)
	if !*all {
		instances = instances[:1]
	}
	report := benchReport{Scale: *scale, Reps: *reps, GoMaxProcs: runtime.GOMAXPROCS(0)}
	if *addr != "" {
		serviceBench(&report, *addr, instances, procsList, *reps)
	} else {
		localBench(&report, instances, procsList, *reps)
	}
	if *withPlan {
		appendPlanRows(&report, instances, procsList)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d measurements)\n", *out, len(report.Benchmarks))
}

// localBench runs the engines in-process, the tool's original mode. The
// sequential baseline runs once at p=1 per instance; every parallel engine
// runs at every entry of procsList.
func localBench(report *benchReport, instances []bench.Instance, procsList []int, reps int) {
	for _, in := range instances {
		g := in.Build()
		seq, err := bench.Run(in, g, bench.Baseline(), 1, reps)
		if err != nil {
			log.Fatal(err)
		}
		record := func(m bench.Measurement, ap int) {
			report.Benchmarks = append(report.Benchmarks, benchRecord{
				Instance:  in.Name,
				N:         in.N,
				M:         in.M,
				Algorithm: m.Algo,
				Procs:     ap,
				MedianNs:  int64(m.Time),
				Speedup:   m.Speedup(seq.Time),
			})
			log.Printf("%-8s %-10s p=%-2d median %v", in.Name, m.Algo, ap, m.Time.Round(time.Microsecond))
		}
		record(seq, 1)
		for _, algo := range engine.Parallel() {
			for _, ap := range procsList {
				m, err := bench.Run(in, g, algo, ap, reps)
				if err != nil {
					log.Fatal(err)
				}
				record(m, ap)
			}
		}
	}
}

// serviceBench uploads each instance to a running bccd and measures every
// algorithm through /v1/bcc. MedianNs is end-to-end request latency;
// Speedup compares the engines' server-reported elapsed_ns.
func serviceBench(report *benchReport, addr string, instances []bench.Instance, procsList []int, reps int) {
	base := strings.TrimRight(addr, "/")
	client := &httpretry.Client{
		HTTP: &http.Client{Timeout: 5 * time.Minute},
		// Uploads are content-addressed and queries are side-effect free:
		// everything here is idempotent, so transport errors retry too (a
		// failover mid-request lands the repeat on the promoted node).
		Policy: httpretry.Policy{RetryTransportErrors: true, Logf: log.Printf},
	}
	for _, in := range instances {
		el := in.Build()
		g, err := bicc.NewGraph(int(el.N), el.Edges)
		if err != nil {
			log.Fatalf("%s: %v", in.Name, err)
		}
		var buf strings.Builder
		if err := bicc.WriteGraph(&buf, g); err != nil {
			log.Fatalf("%s: serializing: %v", in.Name, err)
		}
		resp, err := client.Post(base+"/v1/graphs?name="+in.Name, "text/plain", []byte(buf.String()))
		if err != nil {
			log.Fatalf("%s: uploading: %v", in.Name, err)
		}
		var info struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := decodeBody(resp, &info); err != nil {
			log.Fatalf("%s: uploading: %v", in.Name, err)
		}
		var seqEngine time.Duration
		measure := func(algo engine.Engine, ap int) {
			var lats []time.Duration
			var elapsed time.Duration
			for rep := 0; rep < reps; rep++ {
				body, _ := json.Marshal(map[string]any{
					"graph": info.Fingerprint, "algorithm": algo.Name, "procs": ap,
				})
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/bcc", "application/json", body)
				if err != nil {
					log.Fatalf("%s %s: %v", in.Name, algo.Name, err)
				}
				lats = append(lats, time.Since(t0))
				var qr struct {
					ElapsedNs int64 `json:"elapsed_ns"`
				}
				if err := decodeBody(resp, &qr); err != nil {
					log.Fatalf("%s %s: %v", in.Name, algo.Name, err)
				}
				elapsed = time.Duration(qr.ElapsedNs)
			}
			median := medianDuration(lats)
			if algo.Name == engine.Sequential {
				seqEngine = elapsed
			}
			speedup := 0.0
			if elapsed > 0 {
				speedup = float64(seqEngine) / float64(elapsed)
			}
			report.Benchmarks = append(report.Benchmarks, benchRecord{
				Instance:  in.Name,
				N:         in.N,
				M:         in.M,
				Algorithm: algo.Name,
				Procs:     ap,
				MedianNs:  int64(median),
				Speedup:   speedup,
			})
			log.Printf("%-8s %-10s p=%-2d median %v (engine %v)",
				in.Name, algo.Name, ap, median.Round(time.Microsecond), elapsed.Round(time.Microsecond))
		}
		measure(bench.Baseline(), 1)
		for _, algo := range engine.Parallel() {
			for _, ap := range procsList {
				measure(algo, ap)
			}
		}
	}
}

// appendPlanRows adds two synthetic algorithms to the report, "auto-static"
// and "auto-plan": what an algorithm:"auto" query would cost under the
// static §4 rule versus the feature-based planner, at each swept worker
// count. Both are pure lookups into the medians already measured — the
// engines are not re-run — so the rows answer "which engine would each
// policy have dispatched, and what did that engine actually cost here".
func appendPlanRows(report *benchReport, instances []bench.Instance, procsList []int) {
	type key struct {
		inst, algo string
		procs      int
	}
	measured := map[key]benchRecord{}
	for _, r := range report.Benchmarks {
		measured[key{r.Instance, r.Algorithm, r.Procs}] = r
	}
	// The sequential baseline is measured once at p=1 and ignores the
	// worker count, so any policy that picks it reuses that row.
	lookup := func(inst, eng string, p int) (benchRecord, bool) {
		if r, ok := measured[key{inst, eng, p}]; ok {
			return r, true
		}
		if eng == engine.Sequential {
			r, ok := measured[key{inst, eng, 1}]
			return r, ok
		}
		return benchRecord{}, false
	}
	for _, in := range instances {
		el := in.Build()
		g, err := bicc.NewGraph(int(el.N), el.Edges)
		if err != nil {
			log.Fatalf("%s: %v", in.Name, err)
		}
		for _, p := range procsList {
			pl := plan.New(plan.Config{MaxProcs: p})
			d := pl.Decide(plan.Extract(p, el), p, false)
			for _, row := range []struct{ name, engine string }{
				{"auto-static", bicc.ResolveAlgorithm(g, bicc.Auto, p).String()},
				{"auto-plan", d.Engine},
			} {
				r, ok := lookup(in.Name, row.engine, p)
				if !ok {
					log.Printf("%-8s %-12s p=%-2d -> %s: no measurement, skipping",
						in.Name, row.name, p, row.engine)
					continue
				}
				report.Benchmarks = append(report.Benchmarks, benchRecord{
					Instance:  in.Name,
					N:         in.N,
					M:         in.M,
					Algorithm: row.name,
					Procs:     p,
					MedianNs:  r.MedianNs,
					Speedup:   r.Speedup,
					Chosen:    row.engine,
				})
				log.Printf("%-8s %-12s p=%-2d -> %-10s median %v",
					in.Name, row.name, p, row.engine, time.Duration(r.MedianNs).Round(time.Microsecond))
			}
		}
	}
}

// decodeBody reads resp's JSON into v, turning non-200s into errors.
func decodeBody(resp *http.Response, v any) error {
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	return json.Unmarshal(payload, v)
}

// medianDuration returns the middle element of lats.
func medianDuration(lats []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lats...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
