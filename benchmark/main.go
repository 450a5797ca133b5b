// Command benchmark is the repository's benchmark of record. One command
// runs one workload, checks every answer the program gives, and prints the
// workload's metrics by name with their units as the last line of standard
// output. Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload engines-random --seed 1 --seconds 20 --trace 0
//
// which builds bccd and this command from source first. --trace 0 reports
// the end-to-end metrics; --trace 1 is a separate run that records spans
// around every call into a layer and reports the per-layer metrics derived
// from them. -o writes the full record (provenance, parameters, sample
// counts), and -compare A B judges two directories of such records against
// the bounds in BENCHMARK.json. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bicc"
)

// workload is one set of inputs and the closed loop that drives them. Why
// each exists, and what it stresses, is in README.md and BENCHMARK.json.
type workload struct {
	name string
	run  func(ctx context.Context, cfg *config) (*outcome, error)
	// memoryBound workloads are scaled by the probe's BFS part alone (see
	// probe.go): their ops spend most of their time building maps and
	// arrays over a working set larger than the L2 cache, and slowed down
	// with the host as the BFS did, not as the whole probe did.
	memoryBound bool
}

var workloads = []workload{
	{"engines-random", runEnginesRandom, false},
	{"engines-torus", runEnginesTorus, false},
	{"service-cold", runServiceCold, false},
	{"service-mutate", runServiceMutate, true},
}

// sizes are the input dimensions; tests shrink them.
type sizes struct {
	RandomN, RandomM int
	TorusSide        int
	ColdN, ColdM     int
	ColdPool         int
	ColdWarmOps      int
	ChainBlocks      int
	ChainClique      int
	Batch, Window    int
	MutWarmOps       int
}

var defaultSizes = sizes{
	RandomN: 100_000, RandomM: 1_000_000,
	TorusSide: 512,
	ColdN:     16_000, ColdM: 96_000, ColdPool: 32, ColdWarmOps: 8,
	ChainBlocks: 5_000, ChainClique: 8, Batch: 16, Window: 64, MutWarmOps: 2,
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	procs   int
	clients int
	setups  int // set-ups per run; setup_s is their median
	sizes   sizes
	work    string // scratch directory for bccd data
	start   startFunc
	solve   func(g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error)
	tr      *tracer // nil for an untraced run
	probe   *prober
}

// provenance identifies where and how a record was measured.
type provenance struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Procs      int     `json:"procs"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups"`
	Started    string  `json:"started"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Count int     `json:"count"`
}

// record is the full output of one workload run, as -o writes it.
type record struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Provenance provenance     `json:"provenance"`
	Params     map[string]any `json:"params"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	ErrorRate  float64        `json:"error_rate"`
	Errors     []string       `json:"errors,omitempty"`
	// Metrics holds times divided by Slowdown, the host's slowdown against
	// the reference speed that the calibration probe measured (probe.go);
	// RawMetrics holds the same metrics as measured, and ProbeMs the run's
	// median probe time with the medians of its two parts.
	Metrics        map[string]metricOut `json:"metrics"`
	RawMetrics     map[string]float64   `json:"raw_metrics"`
	Slowdown       float64              `json:"slowdown"`
	ProbeMs        float64              `json:"probe_ms"`
	ProbeMemoryMs  float64              `json:"probe_memory_ms"`
	ProbeComputeMs float64              `json:"probe_compute_ms"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed phase of each run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	procs := fs.Int("procs", runtime.NumCPU(), "engine workers; at most the number of CPUs")
	clients := fs.Int("clients", 2, "closed-loop clients of service-cold; at most the number of CPUs")
	out := fs.String("o", "", "write the full record here (a JSON array with -workload all)")
	spansOut := fs.String("spans", "", "with -trace 1, write every recorded span here")
	bccd := fs.String("bccd", ".bench_build/bccd", "bccd binary for the service workloads")
	work := fs.String("work", ".bench_build", "scratch directory for bccd data directories")
	compare := fs.String("compare", "", "compare the run records in this directory with those in the directory given as argument")
	spec := fs.String("bench", "BENCHMARK.json", "benchmark definition that holds the bounds -compare applies")
	// Flags may follow positional arguments, as in -compare A B -bench X.
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		positional = append(positional, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if *compare != "" {
		if len(positional) != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare A B needs exactly one more directory")
			return 2
		}
		if err := runCompare(stdout, *spec, *compare, positional[0]); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	nproc := runtime.NumCPU()
	var bad string
	switch {
	case len(positional) > 0:
		bad = fmt.Sprintf("unexpected argument %q", positional[0])
	case len(selected) == 0:
		bad = fmt.Sprintf("unknown -workload %q (want one of %s, or all)", *name, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		bad = "-trace takes 0 or 1"
	case *seconds <= 0:
		bad = "-seconds must be positive"
	case *procs < 1 || *procs > nproc:
		bad = fmt.Sprintf("-procs %d: want 1..%d (the number of CPUs)", *procs, nproc)
	case *clients < 1 || *clients > nproc:
		bad = fmt.Sprintf("-clients %d: want 1..%d (the number of CPUs)", *clients, nproc)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "benchmark:", bad)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		procs:   *procs,
		clients: *clients,
		setups:  3,
		sizes:   defaultSizes,
		work:    *work,
		start:   daemonStarter(*bccd),
		solve:   bicc.BiconnectedComponents,
	}
	var records []record
	var spans []span
	exit := 0
	for _, w := range selected {
		if *trace == 1 {
			cfg.tr = newTracer()
		}
		rec, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, e := range rec.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, e)
		}
		if !rec.Correct {
			exit = 1
		}
		records = append(records, rec)
		spans = append(spans, cfg.tr.snapshot()...)
		line, err := json.Marshal(summarize(rec))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if *out != "" {
		var v any = records
		if len(records) == 1 {
			v = records[0]
		}
		if err := writeJSON(*out, v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spansOut != "" && *trace == 1 {
		if err := writeJSON(*spansOut, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return exit
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload runs w under a watchdog that kills every child process and
// exits if the run hangs, and turns its outcome into a record holding the
// metrics of the run's kind.
func runWorkload(ctx context.Context, cfg *config, w workload) (record, error) {
	started := time.Now()
	limit := cfg.seconds + 120*time.Second
	watchdog := time.AfterFunc(limit, func() {
		children.killAll()
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	cfg.probe = newProber(cfg.procs)
	cfg.probe.run()
	o, err := w.run(ctx, cfg)
	if err != nil {
		return record{}, err
	}
	cfg.probe.run()
	if err := cfg.probe.err; err != nil {
		return record{}, err
	}
	if len(cfg.probe.rss) > 0 {
		o.set("peak_rss_mb", slices.Max(cfg.probe.rss), len(cfg.probe.rss))
	}
	slowdown := cfg.probe.slowdown(w.memoryBound)
	defs := endToEnd
	if cfg.tr != nil {
		defs = perLayer
	}
	rec := record{
		Workload:   w.name,
		Traced:     cfg.tr != nil,
		Provenance: provenanceOf(cfg, started),
		Params:     o.params,
		Attempted:  o.attempted,
		Failed:     o.failed,
		ErrorRate:  share(o.failed, o.attempted),
		Errors:     o.errs,
		Metrics:    map[string]metricOut{},
		RawMetrics: map[string]float64{},
		Slowdown:   slowdown,
		ProbeMs:    quantile(cfg.probe.times, 0.5),

		ProbeMemoryMs:  quantile(cfg.probe.memory, 0.5),
		ProbeComputeMs: quantile(cfg.probe.compute, 0.5),
	}
	rec.Correct = o.failed == 0 && o.attempted > 0
	for _, d := range defs {
		s, ok := o.metrics[d.Name]
		if !ok && cfg.tr == nil {
			return record{}, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// A per-layer metric a workload never measures is a layer that does
		// no work on it: 0 from 0 samples.
		v := finite(s.Value)
		rec.RawMetrics[d.Name] = v
		switch d.Unit {
		case "ms", "s":
			v /= slowdown
		case "1/s", "MB/s":
			v *= slowdown
		}
		rec.Metrics[d.Name] = metricOut{v, d.Unit, s.Count}
	}
	return rec, nil
}

func summarize(rec record) summary {
	s := summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	for name, m := range rec.Metrics {
		s.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return s
}

func provenanceOf(cfg *config, started time.Time) provenance {
	return provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CPU:        cpuModel(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Procs:      cfg.procs,
		Clients:    cfg.clients,
		Setups:     cfg.setups,
		Started:    started.UTC().Format(time.RFC3339Nano),
	}
}

// commit is the source revision this binary was built from, with a
// "+modified" suffix for a dirty tree, or "unknown" outside version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssMB reads a process's resident set size (VmRSS) from /proc, in MiB;
// pid "self" is this process.
func rssMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/" + pid + "/status")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childSet holds the processes this benchmark started and has not yet
// reaped, so that the watchdog can kill them before exiting.
type childSet struct {
	mu    sync.Mutex
	procs []*os.Process
}

var children childSet

func (c *childSet) add(p *os.Process) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs = append(c.procs, p)
}

func (c *childSet) remove(p *os.Process) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs = slices.DeleteFunc(c.procs, func(q *os.Process) bool { return q == p })
}

func (c *childSet) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.procs {
		_ = p.Kill()
		_, _ = p.Wait()
	}
	c.procs = nil
}
