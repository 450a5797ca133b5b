package service

import (
	"fmt"
	"net/http"
	"time"

	"bicc/internal/durable"
)

// DurabilityConfig wires a Server to an on-disk data directory. The zero
// value of every field but Dir picks the durable package's defaults.
// Graphs are the only durable state: results are recomputed after an
// eviction or a restart, never read back from disk.
type DurabilityConfig struct {
	// Dir is the data directory: WAL and snapshot generations, nothing
	// else. Subdirectories left by older builds are never read.
	Dir string
	// Sync is the WAL fsync policy; the zero value fsyncs every append
	// before it is acknowledged.
	Sync durable.SyncMode
	// SyncInterval is the flush period under SyncInterval mode.
	SyncInterval time.Duration
	// CompactBytes triggers background snapshot compaction once the active
	// WAL generation passes this size; <= 0 means 64 MiB.
	CompactBytes int64
	// ReplayLogEvery makes boot-time WAL replay log a progress line every N
	// records (through Logf); <= 0 disables progress lines.
	ReplayLogEvery int
	// ScrubInterval is the cadence of background scrub cycles over the WAL
	// segments and snapshots; <= 0 leaves only POST /v1/admin/scrub.
	ScrubInterval time.Duration
	// ScrubBudget caps the bytes a scrub cycle re-verifies; <= 0 means
	// unlimited. A rotating cursor still covers every file across cycles.
	ScrubBudget int64
	// Logf receives replay progress and scrub lines; nil disables them.
	Logf func(format string, args ...any)
}

// RecoveryReport summarizes what EnableDurability found on disk, for the
// daemon's startup log line.
type RecoveryReport struct {
	Graphs          int           // graphs recovered into the registry
	DroppedGraphs   int           // recovered graphs whose fingerprint no longer matched
	Truncations     int           // torn WAL/snapshot tails repaired
	DroppedRecords  int           // framed records whose payload failed to decode
	WALRecords      int           // WAL records replayed at boot
	SnapshotRecords int           // snapshot records replayed at boot
	Duration        time.Duration // total recovery wall time
}

// durability is a Server's live durable state; the Server holds it through
// an atomic pointer so the disabled path costs one nil check.
type durability struct {
	store       *durable.Store
	scrubBudget int64

	recoveredGraphs int64
	recoverySeconds float64
}

// EnableDurability opens (or creates) the data directory, replays the
// newest snapshot plus WAL into the graph registry, and registers the
// durable metrics. Call before serving requests; a second call is an
// error.
func (s *Server) EnableDurability(cfg DurabilityConfig) (*RecoveryReport, error) {
	if s.dur.Load() != nil {
		return nil, fmt.Errorf("service: durability already enabled")
	}
	start := time.Now()
	d := &durability{scrubBudget: cfg.ScrubBudget}

	fsync := s.metrics.Histogram("bicc_wal_fsync_seconds",
		"Latency of WAL fsync calls.")
	store, rec, err := durable.Open(durable.Config{
		Dir:            cfg.Dir,
		Sync:           cfg.Sync,
		SyncInterval:   cfg.SyncInterval,
		CompactBytes:   cfg.CompactBytes,
		FsyncObserve:   fsync.Observe,
		ReplayLogEvery: cfg.ReplayLogEvery,
		ScrubInterval:  cfg.ScrubInterval,
		ScrubBudget:    cfg.ScrubBudget,
		Logf:           cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	d.store = store
	// From here on, space evictions reach the WAL too (Server.evicted),
	// recovery's own included.
	s.dur.Store(d)

	// Load the recovered graphs, re-checking each content address: the
	// codec's CRC already rejects torn records, so a fingerprint mismatch
	// here means silent corruption beyond the frame — drop it durably.
	report := &RecoveryReport{
		Truncations:     rec.Truncations,
		DroppedRecords:  rec.DroppedRecords,
		WALRecords:      rec.WALRecords,
		SnapshotRecords: rec.SnapshotRecords,
	}
	s.writes.Lock()
	for _, gr := range rec.Graphs {
		if intact(gr) != nil {
			_ = store.AppendRemove(gr.FP)
			report.DroppedGraphs++
			continue
		}
		s.install(gr)
		report.Graphs++
	}
	s.writes.Unlock()
	d.recoveredGraphs = int64(report.Graphs)

	report.Duration = time.Since(start)
	d.recoverySeconds = report.Duration.Seconds()
	d.register(s)
	return report, nil
}

// intact checks that a graph record's edges hash to the content
// fingerprint it names: its stable id before any mutation, the last
// delta's post-fingerprint after. Recovery, a standby's replicated and
// resynced records, and promotion all check through it.
func intact(gr durable.GraphRecord) error {
	want := gr.FP
	if gr.Gen > 0 {
		want = gr.CFP
	}
	if got := Fingerprint(gr.Graph); got != want {
		return fmt.Errorf("service: graph %s gen %d hashes to %s, its record names %s", gr.FP, gr.Gen, got, want)
	}
	return nil
}

// install puts a recovered or replicated graph record into the registry in
// place of any entry under its id, and purges the results cached for that
// entry when the record is another incarnation of it. The caller holds
// s.writes.
func (s *Server) install(gr durable.GraphRecord) {
	if prev, ok := s.registry.Put(gr.FP, gr.Name, gr.Graph, gr.Gen, gr.CFP); ok && !holds(prev, gr) {
		s.cache.DropGraph(gr.FP)
	}
}

// holds reports whether a registry entry is the incarnation gr names:
// the same generation and, past generation 0, the same content.
func holds(info GraphInfo, gr durable.GraphRecord) bool {
	return info.Generation == gr.Gen && (gr.Gen == 0 || info.ContentFP == gr.CFP)
}

// register exposes the durable state on the server's metrics registry.
// These series exist only when durability is enabled, so a diskless bccd's
// /metrics output is unchanged.
func (d *durability) register(s *Server) {
	reg := s.metrics
	st := d.store
	reg.GaugeFunc("bicc_wal_bytes",
		"Bytes in the active WAL generation.",
		func() float64 { return float64(st.WALBytes()) })
	reg.GaugeFunc("bicc_wal_generation",
		"Current WAL/snapshot generation number.",
		func() float64 { return float64(st.Generation()) })
	reg.CounterVec("bicc_wal_appends_total",
		"Records appended to the WAL.").Func(st.Appends)
	reg.CounterVec("bicc_wal_errors_total",
		"WAL append failures (write or fsync).").Func(st.WALErrors)
	reg.CounterVec("bicc_wal_compactions_total",
		"Snapshot compactions completed.").Func(st.Compactions)
	reg.CounterVec("bicc_wal_compact_errors_total",
		"Snapshot compactions that failed and were rolled back.").Func(st.CompactErrors)
	reg.GaugeFunc("bicc_recovered_graphs",
		"Graphs recovered from disk at boot.",
		func() float64 { return float64(d.recoveredGraphs) })
	reg.GaugeFunc("bicc_recovery_seconds",
		"Wall time of crash recovery at boot.",
		func() float64 { return d.recoverySeconds })
	reg.CounterVec("bicc_scrub_cycles_total",
		"Scrub cycles completed.").Func(func() int64 { return st.ScrubStats().Cycles })
	reg.CounterVec("bicc_scrub_checked_total",
		"WAL segments and snapshots re-verified by the scrubber.").Func(func() int64 { return st.ScrubStats().Checked })
	reg.CounterVec("bicc_scrub_corrupt_total",
		"Files the scrubber found damaged.").Func(func() int64 { return st.ScrubStats().Corrupt })
	reg.CounterVec("bicc_scrub_repaired_total",
		"Damaged files retired by a compaction.").Func(func() int64 { return st.ScrubStats().Repaired })
	reg.CounterVec("bicc_scrub_bytes_total",
		"Bytes re-verified by the scrubber.").Func(func() int64 { return st.ScrubStats().Bytes })
	reg.GaugeFunc("bicc_scrub_damaged_files",
		"Damaged files awaiting a successful compaction; each scrub cycle retries.",
		func() float64 { return float64(len(st.ScrubStats().Damaged)) })
}

// handleScrub serves POST /v1/admin/scrub: one synchronous scrub cycle,
// its report in the response.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	d := s.dur.Load()
	if d == nil {
		writeError(w, http.StatusConflict, "service: scrubbing requires durability (start bccd with -data-dir)")
		return
	}
	writeJSON(w, http.StatusOK, d.store.Scrub(d.scrubBudget))
}

// CloseDurability stops replication (both roles), then flushes and closes
// the WAL. Call it after the HTTP server has fully stopped: a clean
// shutdown must leave files that the next boot recovers with zero
// truncations.
func (s *Server) CloseDurability() error {
	if rs := s.repls.Swap(nil); rs != nil {
		rs.close()
	}
	d := s.dur.Swap(nil)
	if d == nil {
		return nil
	}
	return d.store.Close()
}
