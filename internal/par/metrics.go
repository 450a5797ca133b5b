package par

import "bicc/internal/obs"

// Worker-pool metrics on the process-wide registry. Every instrumentation
// site is guarded by obs.Enabled(), so with observability off (the default,
// and the benchmark configuration) the runtime pays a single atomic load
// per site and never touches the counters.
var (
	mTasks = obs.Default().Counter("bicc_par_tasks_total",
		"Worker tasks launched by the parallel runtime (one per worker per fork-join loop).")
	mChunks = obs.Default().Counter("bicc_par_chunks_total",
		"Work chunks claimed by dynamically scheduled loops.")
	mSteals = obs.Default().Counter("bicc_par_steals_total",
		"Work taken from the spanning-tree traversal's shared pool (each take is half the pool).")
	// The runtime has no barrier, so this reads 0; it stays registered so
	// its name is stable for the dashboards and benchmarks that read it.
	_ = obs.Default().Counter("bicc_par_barrier_waits_total",
		"Arrivals at software barriers (the runtime has none, so 0).")
	mPanics = obs.Default().Counter("bicc_par_panics_total",
		"Worker panics contained by the parallel runtime and surfaced as typed errors.")
)
