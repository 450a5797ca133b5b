package main

import (
	"sync"
	"time"
)

// The host this benchmark was defined on is a shared 2-vCPU VM whose speed
// drifts by 20–40% over minutes as its neighbours' load changes, which moves
// every workload's times together (see README.md). Each run therefore also
// times a calibration probe, written here and sharing no code with the
// program under test, on every CPU at once: a breadth-first search over a
// fixed random graph (memory latency) followed by a dependent integer loop
// (core speed), each about half of the probe. The probe runs between
// operations, never alongside them, about every probeEvery. A run's times
// are divided by its slowdown, the median probe time over probeRefMs —
// "milliseconds at the reference host speed". Across runs the engine and
// service-cold times moved with the whole probe, service-mutate's with its
// BFS part alone (workload.memoryBound). The raw values and the probe
// medians are kept in the -o record.

// probeRefMs and probeMemoryRefMs are the probe's median time and its BFS
// part's on the reference host in a quiet period (2 vCPUs of an Intel Xeon,
// Go 1.24).
const (
	probeRefMs       = 16.5
	probeMemoryRefMs = 8.5
)

const probeEvery = 500 * time.Millisecond

// probeSpins is the length of the probe's integer loop.
const probeSpins = 6_000_000

// prober owns the probe's graph and per-worker scratch space, and the probe
// times taken so far.
type prober struct {
	workers int
	off     []int32
	adj     []int32
	dist    [][]int32
	queue   [][]int32
	sink    []uint64
	times   []float64 // whole probe, ms
	memory  []float64 // BFS part, ms
	compute []float64 // integer loop part, ms
	total   time.Duration
	last    time.Time

	// pid, when set, names the process running the program; each probe then
	// also samples its resident set size into rss (MiB), while the workload
	// is paused.
	pid string
	rss []float64
	err error
}

// newProber builds the probe graph: 100000 vertices, 500000 edges drawn by
// a fixed xorshift generator, in CSR form.
func newProber(workers int) *prober {
	const n, m = 100_000, 500_000
	x := uint64(88172645463325252)
	next := func() int32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int32(x % n)
	}
	us, vs := make([]int32, m), make([]int32, m)
	off := make([]int32, n+1)
	for i := range us {
		us[i], vs[i] = next(), next()
		off[us[i]+1]++
		off[vs[i]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]int32, 2*m)
	pos := append([]int32(nil), off[:n]...)
	for i := range us {
		adj[pos[us[i]]] = vs[i]
		pos[us[i]]++
		adj[pos[vs[i]]] = us[i]
		pos[vs[i]]++
	}
	p := &prober{workers: workers, off: off, adj: adj, sink: make([]uint64, workers), last: time.Now()}
	for w := 0; w < workers; w++ {
		p.dist = append(p.dist, make([]int32, n))
		p.queue = append(p.queue, make([]int32, 0, n))
	}
	return p
}

// run times one probe: on every worker at once, one full BFS, then the
// integer loop.
func (p *prober) run() {
	start := time.Now()
	p.parallel(p.bfs)
	mid := time.Now()
	p.parallel(p.spin)
	p.last = time.Now()
	p.total += p.last.Sub(start)
	p.times = append(p.times, float64(p.last.Sub(start))/1e6)
	p.memory = append(p.memory, float64(mid.Sub(start))/1e6)
	p.compute = append(p.compute, float64(p.last.Sub(mid))/1e6)
	if p.pid != "" {
		mb, err := rssMB(p.pid)
		if err != nil && p.err == nil {
			p.err = err
		}
		p.rss = append(p.rss, mb)
	}
}

func (p *prober) parallel(f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func (p *prober) bfs(w int) {
	dist, q := p.dist[w], p.queue[w][:0]
	for i := range dist {
		dist[i] = -1
	}
	src := int32(w * 1009)
	dist[src] = 0
	q = append(q, src)
	for h := 0; h < len(q); h++ {
		v := q[h]
		for _, u := range p.adj[p.off[v]:p.off[v+1]] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	p.queue[w] = q
}

func (p *prober) spin(w int) {
	x := uint64(w + 1)
	for i := 0; i < probeSpins; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	p.sink[w] = x
}

// since returns the wall time since begin minus the time probes took since
// then, where spent was p.total at begin: probes pause the workload, so
// their time is not the workload's.
func (p *prober) since(begin time.Time, spent time.Duration) float64 {
	return (time.Since(begin) - (p.total - spent)).Seconds()
}

// due reports whether probeEvery has passed since the last probe.
func (p *prober) due() bool { return time.Since(p.last) >= probeEvery }

// slowdown is the run's median probe time over its reference, or with
// memoryBound the median of the BFS part over its own reference.
func (p *prober) slowdown(memoryBound bool) float64 {
	if memoryBound {
		return quantile(p.memory, 0.5) / probeMemoryRefMs
	}
	return quantile(p.times, 0.5) / probeRefMs
}
