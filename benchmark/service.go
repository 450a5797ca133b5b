package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bicc"
	"bicc/internal/gen"
	"bicc/internal/graph"
)

// backend is a running bccd that the service workloads talk to over HTTP.
type backend interface {
	URL() string
	Pid() string // the server's process id under /proc
	Stop() error
}

// startFunc starts a fresh bccd with default flags, plus -data-dir when
// dataDir is not empty, and returns once it answers /healthz.
type startFunc func(ctx context.Context, dataDir string) (backend, error)

// daemon is bccd running as a child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once bccd's log stream reaches EOF
	once   sync.Once
	err    error

	mu   sync.Mutex
	tail []string // last log lines, for error messages
}

// daemonStarter starts the bccd binary at bin on a kernel-chosen loopback
// port, read back from its "listening on" log line.
func daemonStarter(bin string) startFunc {
	return func(ctx context.Context, dataDir string) (backend, error) {
		args := []string{"-addr", "127.0.0.1:0"}
		if dataDir != "" {
			args = append(args, "-data-dir", dataDir)
		}
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting bccd: %w", err)
		}
		children.add(cmd.Process)
		d := &daemon{cmd: cmd, exited: make(chan struct{})}
		addr := make(chan string, 1)
		go d.readLog(stderr, addr)
		select {
		case a := <-addr:
			d.url = "http://" + a
		case <-d.exited:
			d.Stop()
			return nil, fmt.Errorf("bccd exited before listening: %s", d.lastLog())
		case <-time.After(60 * time.Second):
			d.Stop()
			return nil, errors.New("bccd did not start listening within 60s")
		case <-ctx.Done():
			d.Stop()
			return nil, ctx.Err()
		}
		if err := waitHealthy(ctx, d.url); err != nil {
			d.Stop()
			return nil, fmt.Errorf("%w (log: %s)", err, d.lastLog())
		}
		return d, nil
	}
}

func (d *daemon) readLog(r io.Reader, addr chan<- string) {
	defer close(d.exited)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 10 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			select {
			case addr <- a:
			default:
			}
		}
	}
	// Keep draining after an over-long line so that bccd never blocks on a
	// full log pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) URL() string { return d.url }

func (d *daemon) Pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// Stop asks bccd to drain and exit, kills it if it has not exited within
// 30 s, and reaps it.
func (d *daemon) Stop() error {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.err = d.cmd.Wait()
		children.remove(d.cmd.Process)
	})
	return d.err
}

func waitHealthy(ctx context.Context, url string) error {
	c := newClient(url, 1)
	defer c.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("bccd never became healthy: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// client is one closed-loop caller's HTTP connection pool.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the answer's body; any status but want
// is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode != want {
		if len(data) > 200 {
			data = data[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// call is do followed by decoding the JSON answer into out.
func (c *client) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	data, err := c.do(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// scrape reads bccd's /metrics and sums every sample per series name, with
// labels dropped.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

type uploadAnswer struct {
	Fingerprint string `json:"fingerprint"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
}

type bccAnswer struct {
	Algorithm          string  `json:"algorithm"`
	NumComponents      int     `json:"num_components"`
	NumArticulation    int     `json:"num_articulation_points"`
	NumBridges         int     `json:"num_bridges"`
	ElapsedNs          int64   `json:"elapsed_ns"`
	ArticulationPoints []int32 `json:"articulation_points"`
	Bridges            []int32 `json:"bridges"`
	Cached             bool    `json:"cached"`
	Incr               bool    `json:"incr"`
	Trace              *struct {
		Spans []serverSpan `json:"spans"`
	} `json:"trace"`
}

type serverSpan struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	DurationNs int64  `json:"duration_ns"`
}

type mutateAnswer struct {
	Mode          string `json:"mode"`
	RegionEdges   int    `json:"region_edges"`
	NumComponents int    `json:"num_components"`
	Vertices      int    `json:"vertices"`
	Edges         int    `json:"edges"`
	Invalidated   int    `json:"invalidated_results"`
	ElapsedNs     int64  `json:"elapsed_ns"`
}

// counts is the part of an answer the benchmark checks.
type counts struct{ blocks, cuts, bridges int }

func countsOf(res *bicc.Result) counts {
	return counts{res.NumComponents, len(res.ArticulationPoints()), len(res.Bridges())}
}

// solveCounts runs the sequential engine in process: the oracle.
func solveCounts(n int, edges []graph.Edge) (counts, error) {
	g, err := bicc.NewGraph(n, edges)
	if err != nil {
		return counts{}, err
	}
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		return counts{}, err
	}
	return countsOf(res), nil
}

// checkAnswer compares a /v1/bcc answer with the expected counts, and the
// listed views with the counts the answer itself reports.
func checkAnswer(a *bccAnswer, want counts) string {
	switch {
	case a.NumComponents != want.blocks:
		return fmt.Sprintf("%d blocks, want %d", a.NumComponents, want.blocks)
	case a.NumArticulation != want.cuts || len(a.ArticulationPoints) != want.cuts:
		return fmt.Sprintf("%d articulation points (%d listed), want %d", a.NumArticulation, len(a.ArticulationPoints), want.cuts)
	case a.NumBridges != want.bridges || len(a.Bridges) != want.bridges:
		return fmt.Sprintf("%d bridges (%d listed), want %d", a.NumBridges, len(a.Bridges), want.bridges)
	}
	return ""
}

// queryBody is the one query both service workloads send.
func queryBody(fp string) []byte {
	b, _ := json.Marshal(map[string]any{
		"graph":     fp,
		"algorithm": "auto",
		"include":   []string{"articulation", "bridges"},
	})
	return b
}

func queryPath(traced bool) string {
	if traced {
		return "/v1/bcc?trace=1"
	}
	return "/v1/bcc"
}

// centred places a server-side interval of durNs inside the client's
// [start, end): the two clocks share no origin, so the server's work is
// assumed to sit in the middle of the round trip.
func centred(start, end time.Time, durNs int64) (time.Time, time.Time) {
	d := time.Duration(durNs)
	s := start.Add((end.Sub(start) - d) / 2)
	if s.Before(start) {
		s = start
	}
	return s, s.Add(d)
}

// addQuerySpans records a client "query" span and, under it, the server's
// own ?trace=1 spans re-based onto the client clock: server.bcc →
// server.admission and solve.<engine> → phase.<engine>.<phase>. An answer
// served from maintained incremental state carries no trace; its
// elapsed_ns becomes one server.incr-serve span.
func addQuerySpans(tr *tracer, op, parent int, start, end time.Time, a *bccAnswer) {
	q := tr.add(op, parent, "query", start, end)
	if a.Trace == nil || len(a.Trace.Spans) == 0 {
		s, e := centred(start, end, a.ElapsedNs)
		tr.add(op, q, "server.incr-serve", s, e)
		return
	}
	spans := a.Trace.Spans
	root := slices.IndexFunc(spans, func(s serverSpan) bool { return s.Parent == -1 })
	if root < 0 {
		return
	}
	base, _ := centred(start, end, spans[root].DurationNs)
	at := func(s serverSpan) (time.Time, time.Time) {
		b := base.Add(time.Duration(s.StartNs - spans[root].StartNs))
		return b, b.Add(time.Duration(s.DurationNs))
	}
	ids := map[int]int{}       // server span id → local span id
	engine := map[int]string{} // server span id → engine, for solve spans
	// The server exports parents before their children.
	for _, s := range spans {
		var name string
		parent := q
		switch {
		case s.Parent == -1:
			name = "server." + s.Name
		case s.Parent == spans[root].ID && s.Name == "admission":
			name, parent = "server.admission", ids[s.Parent]
		case s.Parent == spans[root].ID:
			name, parent = "solve."+s.Name, ids[s.Parent]
			engine[s.ID] = s.Name
		default:
			e, ok := engine[s.Parent]
			if !ok {
				continue
			}
			name, parent = "phase."+e+"."+s.Name, ids[s.Parent]
		}
		b, f := at(s)
		ids[s.ID] = tr.add(op, parent, name, b, f)
	}
}

// setServiceLayers derives the svc.* and engine metrics both service
// workloads share, from the query answers, their spans and the deltas of
// the /metrics counters over the timed phase.
func setServiceLayers(o *outcome, x *spanIndex, answers []*bccAnswer, deltas map[string]float64) {
	o.setQuantile("svc.query_ms_p50", x.durations("query"), 0.5)
	o.setQuantile("svc.query_ms_p90", x.durations("query"), 0.9)
	o.setQuantile("svc.overhead_ms_p50", x.selfTimes("query"), 0.5)
	o.setQuantile("svc.admission_wait_ms_p50", x.durations("server.admission"), 0.5)
	setEngineLayers(o, x)

	var elapsed []float64
	routed := map[string]int{}
	for _, a := range answers {
		elapsed = append(elapsed, float64(a.ElapsedNs)/1e6)
		routed[a.Algorithm]++
	}
	o.setQuantile("svc.engine_ms_p50", elapsed, 0.5)
	for _, e := range engineNames {
		o.set("svc.plan.share."+e, share(routed[e], len(answers)), len(answers))
	}
	nq := len(answers)
	if nq > 0 {
		o.set("svc.par.steals_per_query", deltas["bicc_par_steals_total"]/float64(nq), nq)
		o.set("svc.par.barrier_waits_per_query", deltas["bicc_par_barrier_waits_total"]/float64(nq), nq)
	}
	hits, misses := deltas["bicc_cache_hits_total"], deltas["bicc_cache_misses_total"]
	if hits+misses > 0 {
		o.set("svc.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
}

// measure runs loop for one epoch's share of the timed phase against be,
// with the probe sampling be's memory, then takes a last probe and adds the
// /metrics counter deltas over the segment to deltas. It returns the
// segment's length in seconds, probe time excluded.
func measure(ctx context.Context, cfg *config, be backend, c *client, deltas map[string]float64, loop func(deadline time.Time)) (float64, error) {
	before, err := c.scrape(ctx)
	if err != nil {
		return 0, err
	}
	cfg.probe.pid = be.Pid()
	defer func() { cfg.probe.pid = "" }()
	begin, spent := time.Now(), cfg.probe.total
	loop(begin.Add(cfg.seconds / time.Duration(cfg.setups)))
	cfg.probe.run()
	wall := cfg.probe.since(begin, spent)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	after, err := c.scrape(ctx)
	if err != nil {
		return 0, err
	}
	for k, v := range after {
		deltas[k] += v - before[k]
	}
	return wall, nil
}

// --- service-cold -----------------------------------------------------------

// coldGraph is one pooled input: its text upload body and oracle answer.
type coldGraph struct {
	body []byte
	m    int
	want counts
}

// coldInputs draws the seeded pool of G(n, m) graphs, sized to a multiple
// of the client count so that clients never share a graph. It also returns
// the first graph's edge list for the traced run's kernels.
func coldInputs(cfg *config) ([]coldGraph, *graph.EdgeList, error) {
	size := (cfg.sizes.ColdPool + cfg.clients - 1) / cfg.clients * cfg.clients
	pool := make([]coldGraph, size)
	var first *graph.EdgeList
	for i := range pool {
		el := gen.RandomConnected(cfg.sizes.ColdN, cfg.sizes.ColdM, cfg.seed*1_000_003+int64(i))
		if i == 0 {
			first = el
		}
		var buf bytes.Buffer
		if err := graph.Write(&buf, el); err != nil {
			return nil, nil, err
		}
		want, err := solveCounts(int(el.N), el.Edges)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: %w", err)
		}
		pool[i] = coldGraph{buf.Bytes(), len(el.Edges), want}
	}
	return pool, first, nil
}

// coldRec is one service-cold op: upload, query, delete.
type coldRec struct {
	start, uploaded, queried, end time.Time
	bytes                         int
	ans                           bccAnswer
}

// coldOp uploads g, queries it once and deletes it, so the answer can never
// come from the cache. The delete is sent even when the query failed.
func coldOp(ctx context.Context, c *client, g *coldGraph, traced bool) (coldRec, error) {
	r := coldRec{start: time.Now(), bytes: len(g.body)}
	var up uploadAnswer
	if err := c.call(ctx, http.MethodPost, "/v1/graphs", g.body, http.StatusOK, &up); err != nil {
		return r, err
	}
	r.uploaded = time.Now()
	qerr := c.call(ctx, http.MethodPost, queryPath(traced), queryBody(up.Fingerprint), http.StatusOK, &r.ans)
	r.queried = time.Now()
	_, derr := c.do(ctx, http.MethodDelete, "/v1/graphs/"+up.Fingerprint, nil, http.StatusNoContent)
	r.end = time.Now()
	switch {
	case qerr != nil:
		return r, qerr
	case derr != nil:
		return r, derr
	case up.Edges != g.m:
		return r, fmt.Errorf("upload reports %d edges, want %d", up.Edges, g.m)
	case r.ans.Cached:
		return r, errors.New("answer came from the cache")
	}
	if msg := checkAnswer(&r.ans, g.want); msg != "" {
		return r, errors.New(msg)
	}
	return r, nil
}

// coldResult is one service-cold op as the run keeps it.
type coldResult struct {
	rec    coldRec
	traced bool
	err    error
}

func runServiceCold(ctx context.Context, cfg *config) (*outcome, error) {
	pool, first, err := coldInputs(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.params["n"] = cfg.sizes.ColdN
	o.params["m"] = cfg.sizes.ColdM
	o.params["pool"] = len(pool)
	o.params["clients"] = cfg.clients
	o.params["epochs"] = cfg.setups
	if cfg.tr != nil {
		if err := runKernels(ctx, cfg, first, o); err != nil {
			return nil, err
		}
	}
	var results []coldResult
	var setup []float64
	deltas := map[string]float64{}
	wall := 0.0
	for k := 0; k < cfg.setups; k++ {
		rs, s, w, err := coldEpoch(ctx, cfg, pool, deltas)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
		setup = append(setup, s)
		wall += w
	}

	var ops, traced, untraced []float64
	var answers []*bccAnswer
	upBytes, upSeconds := 0, 0.0
	for k := range results {
		r := &results[k]
		o.attempted++
		if r.err != nil {
			o.fail("%v", r.err)
			continue
		}
		ms := float64(r.rec.end.Sub(r.rec.start)) / 1e6
		ops = append(ops, ms)
		answers = append(answers, &r.rec.ans)
		upBytes += r.rec.bytes
		upSeconds += r.rec.uploaded.Sub(r.rec.start).Seconds()
		if !r.traced {
			untraced = append(untraced, ms)
			continue
		}
		traced = append(traced, ms)
		op := cfg.tr.newOp()
		root := cfg.tr.add(op, -1, "op", r.rec.start, r.rec.end)
		cfg.tr.add(op, root, "upload", r.rec.start, r.rec.uploaded)
		addQuerySpans(cfg.tr, op, root, r.rec.uploaded, r.rec.queried, &r.rec.ans)
		cfg.tr.add(op, root, "delete", r.rec.queried, r.rec.end)
	}
	o.setQuantile("setup_s", setup, 0.5)
	o.setQuantile("op_ms_p50", ops, 0.5)
	o.setQuantile("op_ms_p90", ops, 0.9)
	o.set("ops_per_s", float64(len(ops))/wall, len(ops))
	o.params["ops"] = len(ops)

	if cfg.tr != nil {
		x := indexSpans(cfg.tr.snapshot())
		setServiceLayers(o, x, answers, deltas)
		setKernelLayers(o, x, cfg.procs)
		o.setQuantile("svc.upload_ms_p50", x.durations("upload"), 0.5)
		if upSeconds > 0 {
			o.set("svc.upload_mb_per_s", float64(upBytes)/1e6/upSeconds, len(ops))
		}
		setOverhead(o, traced, untraced)
	}
	return o, nil
}

// coldEpoch boots one bccd and times its set-up — boot to /healthz, then
// warm-up ops that also give the planner its first latency observations —
// then drives it from cfg.clients closed-loop clients for its share of the
// timed phase. It adds the /metrics counter deltas of the timed part to
// deltas and returns the ops, the set-up time and the timed part's length
// in seconds.
func coldEpoch(ctx context.Context, cfg *config, pool []coldGraph, deltas map[string]float64) ([]coldResult, float64, float64, error) {
	start := time.Now()
	be, err := cfg.start(ctx, "")
	if err != nil {
		return nil, 0, 0, err
	}
	defer be.Stop()
	c := newClient(be.URL(), cfg.clients)
	defer c.close()
	for w := 0; w < cfg.sizes.ColdWarmOps; w++ {
		if _, err := coldOp(ctx, c, &pool[w%len(pool)], false); err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	setup := time.Since(start).Seconds()

	results := make([][]coldResult, cfg.clients)
	wall, err := measure(ctx, cfg, be, c, deltas, func(deadline time.Time) {
		// Clients hold the gate shared for each op; the probe takes it
		// exclusively, so it runs only between ops.
		var gate sync.RWMutex
		stopProbe := make(chan struct{})
		var wg, probeWG sync.WaitGroup
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopProbe:
					return
				case <-tick.C:
					gate.Lock()
					cfg.probe.run()
					gate.Unlock()
				}
			}
		}()
		for i := 0; i < cfg.clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; time.Now().Before(deadline) && ctx.Err() == nil; j++ {
					traced := cfg.tr != nil && j%2 == 0
					gate.RLock()
					rec, err := coldOp(ctx, c, &pool[(i+j*cfg.clients)%len(pool)], traced)
					gate.RUnlock()
					results[i] = append(results[i], coldResult{rec, traced, err})
				}
			}(i)
		}
		wg.Wait()
		close(stopProbe)
		probeWG.Wait()
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return slices.Concat(results...), setup, wall, nil
}

// --- service-mutate ---------------------------------------------------------

// delta is one edge mutation as POST /v1/graphs/{fp}/edges takes it.
type delta struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// mutModel is the client's copy of the graph it mutates: the base graph's
// edges, which it never deletes, plus the live edges it inserted itself.
type mutModel struct {
	n      int32
	base   []uint64     // sorted canonical keys of the base edges
	own    []graph.Edge // live inserted edges, oldest first
	ownSet map[uint64]bool
	rng    *rand.Rand
	window int
	batch  int
}

func newMutModel(el *graph.EdgeList, baseKeys []uint64, cfg *config) *mutModel {
	return &mutModel{
		n: el.N, base: baseKeys, ownSet: map[uint64]bool{},
		rng:    rand.New(rand.NewSource(cfg.seed)),
		window: cfg.sizes.Window, batch: cfg.sizes.Batch,
	}
}

func (m *mutModel) edges() int { return len(m.base) + len(m.own) }

func (m *mutModel) has(u, v int32) bool {
	k := graph.CanonKey(u, v)
	if m.ownSet[k] {
		return true
	}
	_, found := slices.BinarySearch(m.base, k)
	return found
}

// nextBatch draws one local batch and applies it to the model: each delta
// deletes the oldest edge this client inserted in an earlier batch with
// probability 1/2 (bccd rejects deleting an edge inserted earlier in the
// same batch), and otherwise inserts a new edge between two vertices of one
// window of ids.
func (m *mutModel) nextBatch() ([]delta, error) {
	lo := m.rng.Int31n(m.n - int32(m.window) + 1)
	out := make([]delta, 0, m.batch)
	older := len(m.own)
	for tries := 0; len(out) < m.batch; tries++ {
		if tries > 100*m.batch {
			return nil, fmt.Errorf("window at %d has no free vertex pair", lo)
		}
		if older > 0 && m.rng.Intn(2) == 0 {
			e := m.own[0]
			m.own = m.own[1:]
			older--
			delete(m.ownSet, graph.CanonKey(e.U, e.V))
			out = append(out, delta{"delete", e.U, e.V})
			continue
		}
		u := lo + m.rng.Int31n(int32(m.window))
		v := lo + m.rng.Int31n(int32(m.window))
		if u == v || m.has(u, v) {
			continue
		}
		m.own = append(m.own, graph.Edge{U: u, V: v})
		m.ownSet[graph.CanonKey(u, v)] = true
		out = append(out, delta{"insert", u, v})
	}
	return out, nil
}

// mutRec is one service-mutate op: a mutation batch, then a query.
type mutRec struct {
	start, mutated, end time.Time
	mut                 mutateAnswer
	ans                 bccAnswer
}

func mutOp(ctx context.Context, c *client, fp string, m *mutModel, traced bool) (mutRec, error) {
	batch, err := m.nextBatch()
	if err != nil {
		return mutRec{}, err
	}
	body, err := json.Marshal(map[string]any{"deltas": batch})
	if err != nil {
		return mutRec{}, err
	}
	r := mutRec{start: time.Now()}
	if err := c.call(ctx, http.MethodPost, "/v1/graphs/"+fp+"/edges", body, http.StatusOK, &r.mut); err != nil {
		return r, err
	}
	r.mutated = time.Now()
	if err := c.call(ctx, http.MethodPost, queryPath(traced), queryBody(fp), http.StatusOK, &r.ans); err != nil {
		return r, err
	}
	r.end = time.Now()
	switch {
	case r.mut.Edges != m.edges() || r.mut.Vertices != int(m.n):
		return r, fmt.Errorf("mutation left %d vertices and %d edges, want %d and %d", r.mut.Vertices, r.mut.Edges, m.n, m.edges())
	case r.mut.NumComponents != 0 && r.ans.NumComponents != r.mut.NumComponents:
		return r, fmt.Errorf("query reports %d blocks, the mutation %d", r.ans.NumComponents, r.mut.NumComponents)
	case r.ans.Cached:
		return r, errors.New("answer after a mutation came from the cache")
	case len(r.ans.ArticulationPoints) != r.ans.NumArticulation || len(r.ans.Bridges) != r.ans.NumBridges:
		return r, errors.New("listed views disagree with the reported counts")
	}
	return r, nil
}

func runServiceMutate(ctx context.Context, cfg *config) (*outcome, error) {
	el := gen.BlockChain(cfg.sizes.ChainBlocks, cfg.sizes.ChainClique)
	var text bytes.Buffer
	if err := graph.Write(&text, el); err != nil {
		return nil, err
	}
	baseKeys := make([]uint64, len(el.Edges))
	for i, e := range el.Edges {
		baseKeys[i] = graph.CanonKey(e.U, e.V)
	}
	slices.Sort(baseKeys)
	o := newOutcome()
	o.params["n"] = int(el.N)
	o.params["m"] = len(el.Edges)
	o.params["batch"] = cfg.sizes.Batch
	o.params["window"] = cfg.sizes.Window
	o.params["epochs"] = cfg.setups
	if cfg.tr != nil {
		if err := runKernels(ctx, cfg, el, o); err != nil {
			return nil, err
		}
	}
	var results []mutResult
	var setup []float64
	deltas := map[string]float64{}
	wall := 0.0
	for k := 0; k < cfg.setups; k++ {
		rs, s, w, err := mutateEpoch(ctx, cfg, el, text.Bytes(), baseKeys, deltas)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
		setup = append(setup, s)
		wall += w
	}

	var ops, traced, untraced, regions []float64
	var answers []*bccAnswer
	modes := map[string]int{}
	invalidated, incrServed := 0, 0
	for k := range results {
		r := &results[k]
		o.attempted++
		if r.err != nil {
			o.fail("%v", r.err)
			continue
		}
		if r.final {
			continue
		}
		ms := float64(r.rec.end.Sub(r.rec.start)) / 1e6
		ops = append(ops, ms)
		answers = append(answers, &r.rec.ans)
		regions = append(regions, float64(r.rec.mut.RegionEdges))
		modes[r.rec.mut.Mode]++
		invalidated += r.rec.mut.Invalidated
		if r.rec.ans.Incr {
			incrServed++
		}
		if !r.traced {
			untraced = append(untraced, ms)
			continue
		}
		traced = append(traced, ms)
		op := cfg.tr.newOp()
		root := cfg.tr.add(op, -1, "op", r.rec.start, r.rec.end)
		mid := cfg.tr.add(op, root, "mutate", r.rec.start, r.rec.mutated)
		s, e := centred(r.rec.start, r.rec.mutated, r.rec.mut.ElapsedNs)
		cfg.tr.add(op, mid, "server.mutate", s, e)
		addQuerySpans(cfg.tr, op, root, r.rec.mutated, r.rec.end, &r.rec.ans)
	}
	o.setQuantile("setup_s", setup, 0.5)
	o.setQuantile("op_ms_p50", ops, 0.5)
	o.setQuantile("op_ms_p90", ops, 0.9)
	o.set("ops_per_s", float64(len(ops))/wall, len(ops))
	o.params["ops"] = len(ops)

	if cfg.tr != nil {
		x := indexSpans(cfg.tr.snapshot())
		setServiceLayers(o, x, answers, deltas)
		setKernelLayers(o, x, cfg.procs)
		o.setQuantile("mut.mutate_ms_p50", x.durations("mutate"), 0.5)
		o.setQuantile("mut.mutate_ms_p90", x.durations("mutate"), 0.9)
		o.setQuantile("mut.apply_ms_p50", x.durations("server.mutate"), 0.5)
		o.setQuantile("mut.overhead_ms_p50", x.selfTimes("mutate"), 0.5)
		o.setQuantile("mut.region_edges_p50", regions, 0.5)
		for _, mode := range []string{"absorb", "rebuild", "full"} {
			o.set("mut.mode."+mode+"_share", share(modes[mode], len(ops)), len(ops))
		}
		o.set("mut.invalidated_per_batch", share(invalidated, len(ops)), len(ops))
		o.set("mut.query_incr_share", share(incrServed, len(ops)), len(ops))
		if n := deltas["bicc_wal_fsync_seconds_count"]; n > 0 {
			o.set("mut.wal_fsync_ms_mean", deltas["bicc_wal_fsync_seconds_sum"]/n*1000, int(n))
		}
		setOverhead(o, traced, untraced)
	}
	return o, nil
}

// mutResult is one service-mutate op, or the epoch's final check (final),
// as the run keeps it.
type mutResult struct {
	rec    mutRec
	traced bool
	final  bool
	err    error
}

// mutateEpoch boots one durable bccd on a fresh data directory and times its
// set-up — boot to /healthz, upload of the base graph (fsync'd to the WAL),
// warm-up ops, the first of which seeds the maintained decomposition with
// one engine run — then drives it from one client in lockstep for its share
// of the timed phase, and finally checks the answer against a sequential
// solve of the client's copy of the graph. It adds the /metrics counter
// deltas of the timed part to deltas.
func mutateEpoch(ctx context.Context, cfg *config, el *graph.EdgeList, text []byte, baseKeys []uint64, deltas map[string]float64) ([]mutResult, float64, float64, error) {
	dir, err := os.MkdirTemp(cfg.work, "mutate-data-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	be, err := cfg.start(ctx, dir)
	if err != nil {
		return nil, 0, 0, err
	}
	defer be.Stop()
	c := newClient(be.URL(), 1)
	defer c.close()
	var up uploadAnswer
	if err := c.call(ctx, http.MethodPost, "/v1/graphs", text, http.StatusOK, &up); err != nil {
		return nil, 0, 0, err
	}
	fp, m := up.Fingerprint, newMutModel(el, baseKeys, cfg)
	for w := 0; w < cfg.sizes.MutWarmOps; w++ {
		if _, err := mutOp(ctx, c, fp, m, false); err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	setup := time.Since(start).Seconds()

	var results []mutResult
	wall, err := measure(ctx, cfg, be, c, deltas, func(deadline time.Time) {
		for j := 0; j == 0 || time.Now().Before(deadline); j++ {
			if ctx.Err() != nil {
				return
			}
			if cfg.probe.due() {
				cfg.probe.run()
			}
			traced := cfg.tr != nil && j%2 == 0
			rec, err := mutOp(ctx, c, fp, m, traced)
			results = append(results, mutResult{rec: rec, traced: traced, err: err})
			if err != nil {
				return // the client's copy may no longer match the server's graph
			}
		}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if results[len(results)-1].err != nil {
		return results, setup, wall, nil
	}

	check := mutResult{final: true}
	var final bccAnswer
	if err := c.call(ctx, http.MethodPost, "/v1/bcc", queryBody(fp), http.StatusOK, &final); err != nil {
		check.err = fmt.Errorf("final query: %w", err)
	} else if want, err := solveCounts(int(el.N), append(slices.Clone(el.Edges), m.own...)); err != nil {
		check.err = fmt.Errorf("final oracle: %w", err)
	} else if msg := checkAnswer(&final, want); msg != "" {
		check.err = fmt.Errorf("final answer: %s", msg)
	}
	return append(results, check), setup, wall, nil
}
