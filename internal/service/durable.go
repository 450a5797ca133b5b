package service

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"bicc"
	"bicc/internal/durable"
)

// DurabilityConfig wires a Server to an on-disk data directory. The zero
// value of every field but Dir picks the durable package's defaults.
type DurabilityConfig struct {
	// Dir is the data directory: WAL and snapshot generations at the top
	// level, spilled results under spill/.
	Dir string
	// Sync is the WAL fsync policy; the zero value fsyncs every append
	// before it is acknowledged.
	Sync durable.SyncMode
	// SyncInterval is the flush period under SyncInterval mode.
	SyncInterval time.Duration
	// CompactBytes triggers background snapshot compaction once the active
	// WAL generation passes this size; <= 0 means 64 MiB.
	CompactBytes int64
	// SpillBudget bounds the disk bytes held by spilled results; <= 0
	// means unlimited.
	SpillBudget int64
	// MemBudget bounds the result cache's resident bytes; once exceeded,
	// LRU results are demoted to the spill tier instead of dropped. <= 0
	// leaves only the entry-count bound.
	MemBudget int64
	// VerifySample is how many recovered results are re-verified end to
	// end (ReconstructResult + Verify) at boot; <= 0 means 3.
	VerifySample int
	// ReplayLogEvery makes boot-time WAL replay log a progress line every N
	// records (through Logf); <= 0 disables progress lines.
	ReplayLogEvery int
	// Logf receives replay progress lines; nil disables them.
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
	SpilledResults  int           // results found in the spill tier
	VerifiedResults int           // spilled results re-verified clean at boot
	VerifyFailures  int           // spilled results that failed re-verification (deleted)
	Duration        time.Duration // total recovery wall time
}

// durability is a Server's live durable state; the Server holds it through
// an atomic pointer so the disabled path costs one nil check.
type durability struct {
	store *durable.Store
	spill *durable.Spill
	dir   string // the data directory (quarantine lives under it)

	recoveredGraphs int64
	recoverySeconds float64
	truncations     int64
	walRecords      int64
	snapRecords     int64
	verifiedResults int64
	verifyFailures  atomic.Int64
}

// EnableDurability opens (or creates) the data directory, replays the
// newest snapshot plus WAL into the graph registry, adopts the spill tier
// as the result cache's disk level, and registers the durable metrics.
// Call before serving requests; a second call is an error.
func (s *Server) EnableDurability(cfg DurabilityConfig) (*RecoveryReport, error) {
	if s.dur.Load() != nil {
		return nil, fmt.Errorf("service: durability already enabled")
	}
	start := time.Now()
	d := &durability{dir: cfg.Dir}

	fsync := s.metrics.Histogram("bicc_wal_fsync_seconds",
		"Latency of WAL fsync calls.")
	store, rec, err := durable.Open(durable.Config{
		Dir:            cfg.Dir,
		Sync:           cfg.Sync,
		SyncInterval:   cfg.SyncInterval,
		CompactBytes:   cfg.CompactBytes,
		FsyncObserve:   fsync.Observe,
		ReplayLogEvery: cfg.ReplayLogEvery,
		Logf:           cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	d.store = store
	d.truncations = int64(rec.Truncations)
	d.walRecords = int64(rec.WALRecords)
	d.snapRecords = int64(rec.SnapshotRecords)

	// From here on, space evictions must reach the WAL too, or recovery
	// would resurrect graphs the registry already let go. The observer
	// fires outside the registry lock (see Registry.Add).
	s.registry.SetEvictObserver(func(fp string) { _ = store.AppendRemove(fp) })

	// Load the recovered graphs, re-checking each content address: the
	// codec's CRC already rejects torn records, so a fingerprint mismatch
	// here means silent corruption beyond the frame — drop it durably.
	report := &RecoveryReport{
		Truncations:     rec.Truncations,
		DroppedRecords:  rec.DroppedRecords,
		WALRecords:      rec.WALRecords,
		SnapshotRecords: rec.SnapshotRecords,
	}
	for _, gr := range rec.Graphs {
		// A mutated graph's content no longer hashes to its stable id: the
		// current content fingerprint recorded by the last delta is what the
		// replayed edge list must match.
		want := gr.FP
		if gr.Gen > 0 {
			want = gr.CFP
		}
		if Fingerprint(gr.Graph) != want {
			_ = store.AppendRemove(gr.FP)
			report.DroppedGraphs++
			continue
		}
		if gr.Gen > 0 {
			s.registry.AddAt(gr.FP, gr.Name, gr.Graph, gr.Gen, gr.CFP)
		} else {
			s.registry.Add(gr.FP, gr.Name, gr.Graph) // content hashes to gr.FP, checked above
		}
		report.Graphs++
	}
	d.recoveredGraphs = int64(report.Graphs)

	spill, keys, err := durable.OpenSpill(filepath.Join(cfg.Dir, "spill"), cfg.SpillBudget)
	if err != nil {
		_ = store.Close()
		s.registry.SetEvictObserver(nil)
		return nil, err
	}
	d.spill = spill
	report.SpilledResults = len(keys)

	// Re-verify a sample of recovered results end to end: rebuild the
	// Result from the persisted labels and run the independent checker.
	// CRC guards against torn bytes; this guards against a stale or
	// cross-wired record that is internally consistent but wrong.
	sample := cfg.VerifySample
	if sample <= 0 {
		sample = 3
	}
	for _, key := range keys {
		if report.VerifiedResults+report.VerifyFailures >= sample {
			break
		}
		rr, ok := spill.Get(key)
		if !ok {
			continue
		}
		g, ok := s.registry.Acquire(rr.FP)
		if !ok {
			continue // graph not resident; nothing to check against
		}
		algo, aerr := parseAlgorithm(rr.Algorithm)
		clean := aerr == nil
		if clean {
			res, rerr := bicc.ReconstructResult(g, algo, rr.EdgeComponent)
			clean = rerr == nil && bicc.Verify(g, res) == nil
		}
		s.registry.Release(rr.FP)
		if clean {
			report.VerifiedResults++
		} else {
			spill.Remove(key)
			report.VerifyFailures++
		}
	}
	d.verifiedResults = int64(report.VerifiedResults)
	d.verifyFailures.Store(int64(report.VerifyFailures))

	s.cache.SetDurable(spill, cfg.MemBudget)
	report.Duration = time.Since(start)
	d.recoverySeconds = report.Duration.Seconds()
	d.register(s)
	s.dur.Store(d)
	return report, nil
}

// register exposes the durable state on the server's metrics registry.
// These series exist only when durability is enabled, so a diskless bccd's
// /metrics output is unchanged.
func (d *durability) register(s *Server) {
	reg := s.metrics
	st, sp := d.store, d.spill
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
	reg.CounterVec("bicc_recovery_verify_failures_total",
		"Spilled results that failed boot-time re-verification and were dropped.").Func(d.verifyFailures.Load)
	reg.GaugeFunc("bicc_spill_bytes",
		"Disk bytes held by spilled results.",
		func() float64 { return float64(sp.Bytes()) })
	reg.GaugeFunc("bicc_spill_entries",
		"Results resident in the spill tier.",
		func() float64 { return float64(sp.Len()) })
	reg.CounterVec("bicc_spill_writes_total",
		"Results demoted to the spill tier.").Func(sp.Writes)
	reg.CounterVec("bicc_spill_hits_total",
		"Queries promoted from the spill tier.").Func(sp.Hits)
	reg.CounterVec("bicc_spill_misses_total",
		"Spill lookups that found nothing.").Func(sp.Misses)
	reg.CounterVec("bicc_spill_evictions_total",
		"Spilled results evicted for disk budget.").Func(sp.Evictions)
	reg.CounterVec("bicc_spill_corrupt_total",
		"Spilled results dropped on CRC or decode failure.").Func(sp.Corrupt)
	reg.GaugeFunc("bicc_result_cache_mem_bytes",
		"Estimated resident bytes of the in-memory result cache.",
		func() float64 { return float64(s.cache.Bytes()) })
}

// CloseDurability flushes and closes the WAL and detaches the spill tier.
// Call it after the HTTP server has fully stopped: a clean shutdown must
// leave files that the next boot recovers with zero truncations.
func (s *Server) CloseDurability() error {
	d := s.dur.Swap(nil)
	if d == nil {
		return nil
	}
	s.registry.SetEvictObserver(nil)
	s.cache.SetDurable(nil, 0)
	return d.store.Close()
}

// DurabilitySnapshot is the /statsz durability section. It is present only
// when a data directory is configured, so a diskless bccd's /statsz output
// is byte-identical to older builds.
type DurabilitySnapshot struct {
	RecoveredGraphs int64   `json:"recovered_graphs"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	Truncations     int64   `json:"wal_truncations"`
	WALReplayed     int64   `json:"wal_replayed_records"`
	SnapReplayed    int64   `json:"snapshot_records"`
	WALBytes        int64   `json:"wal_bytes"`
	WALGeneration   int64   `json:"wal_generation"`
	WALAppends      int64   `json:"wal_appends"`
	WALErrors       int64   `json:"wal_errors"`
	Compactions     int64   `json:"wal_compactions"`
	SpillEntries    int     `json:"spill_entries"`
	SpillBytes      int64   `json:"spill_bytes"`
	SpillWrites     int64   `json:"spill_writes"`
	SpillHits       int64   `json:"spill_hits"`
	SpillMisses     int64   `json:"spill_misses"`
	SpillEvictions  int64   `json:"spill_evictions"`
	SpillCorrupt    int64   `json:"spill_corrupt"`
	CacheMemBytes   int64   `json:"result_cache_mem_bytes"`
	VerifiedResults int64   `json:"verified_results"`
	VerifyFailures  int64   `json:"verify_failures"`
}

func (d *durability) snapshot(c *ResultCache) *DurabilitySnapshot {
	return &DurabilitySnapshot{
		RecoveredGraphs: d.recoveredGraphs,
		RecoverySeconds: d.recoverySeconds,
		Truncations:     d.truncations,
		WALReplayed:     d.walRecords,
		SnapReplayed:    d.snapRecords,
		WALBytes:        d.store.WALBytes(),
		WALGeneration:   int64(d.store.Generation()),
		WALAppends:      d.store.Appends(),
		WALErrors:       d.store.WALErrors(),
		Compactions:     d.store.Compactions(),
		SpillEntries:    d.spill.Len(),
		SpillBytes:      d.spill.Bytes(),
		SpillWrites:     d.spill.Writes(),
		SpillHits:       d.spill.Hits(),
		SpillMisses:     d.spill.Misses(),
		SpillEvictions:  d.spill.Evictions(),
		SpillCorrupt:    d.spill.Corrupt(),
		CacheMemBytes:   c.Bytes(),
		VerifiedResults: d.verifiedResults,
		VerifyFailures:  d.verifyFailures.Load(),
	}
}
