package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/scrub"
)

// ScrubConfig wires a Server to the background scrubber. Durability must be
// enabled first: the scrubber walks the durable tiers, so there must be
// some.
type ScrubConfig struct {
	// Interval is the background cycle cadence; <= 0 disables the loop and
	// leaves only manual sweeps (POST /v1/admin/scrub).
	Interval time.Duration
	// Budget caps the bytes re-verified per cycle; <= 0 means unlimited.
	// Tiers keep rotating cursors, so a budget smaller than the data set
	// still covers everything across consecutive cycles.
	Budget int64
	// CertSample picks every Nth spilled result for full content
	// re-verification (ReconstructResult + Verify + a sparse-certificate
	// cross-check) on top of the frame checks; <= 0 means 8.
	CertSample int
	// Logf receives detection/repair/quarantine lines; nil disables them.
	Logf func(format string, args ...any)
}

// scrubRepairTimeout bounds one recompute-from-graph repair so a wedged
// engine cannot stall the scrub loop forever.
const scrubRepairTimeout = time.Minute

// scrubState is a Server's live scrubbing machinery, held through an atomic
// pointer like the other optional subsystems.
type scrubState struct {
	scr  *scrub.Scrubber
	qdir string

	mu          sync.Mutex
	quarantined []string // base names resident in the quarantine directory
}

// moveToQuarantine renames an unrepairable artifact into the quarantine
// directory so nothing can serve it, and records it for /healthz.
func (sc *scrubState) moveToQuarantine(path string) error {
	if err := os.MkdirAll(sc.qdir, 0o755); err != nil {
		return err
	}
	name := filepath.Base(path)
	if err := os.Rename(path, filepath.Join(sc.qdir, name)); err != nil {
		return err
	}
	sc.note(name)
	return nil
}

func (sc *scrubState) note(name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, q := range sc.quarantined {
		if q == name {
			return
		}
	}
	sc.quarantined = append(sc.quarantined, name)
	sort.Strings(sc.quarantined)
}

// quarantineList returns the quarantined artifact names (nil when clean).
func (sc *scrubState) quarantineList() []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.quarantined) == 0 {
		return nil
	}
	return append([]string(nil), sc.quarantined...)
}

// EnableScrub builds the tier adapters over whatever subsystems are enabled
// (tiers for disabled subsystems list nothing), registers the scrub
// metrics, and starts the background loop when cfg.Interval is set.
// Requires EnableDurability first; call after the other Enable* calls so
// every tier is visible. A second call is an error.
func (s *Server) EnableScrub(cfg ScrubConfig) error {
	d := s.dur.Load()
	if d == nil {
		return fmt.Errorf("service: scrubbing requires durability (call EnableDurability first)")
	}
	if s.scrubs.Load() != nil {
		return fmt.Errorf("service: scrubbing already enabled")
	}
	sc := &scrubState{qdir: filepath.Join(d.dir, "quarantine")}
	// Quarantined artifacts persist across restarts; they stay on /healthz
	// until an operator inspects and clears the directory.
	if entries, err := os.ReadDir(sc.qdir); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				sc.note(e.Name())
			}
		}
	}
	sample := cfg.CertSample
	if sample <= 0 {
		sample = 8
	}
	sc.scr = scrub.New(scrub.Config{Interval: cfg.Interval, Budget: cfg.Budget, Logf: cfg.Logf},
		&walTier{s: s, d: d, sc: sc},
		&spillTier{s: s, d: d, sc: sc, sample: sample},
		&ringTier{s: s},
	)
	sc.register(s)
	s.scrubs.Store(sc)
	sc.scr.Start()
	return nil
}

// CloseScrub stops the background loop and waits for an in-flight cycle.
// Call it before CloseReplication/CloseDurability — the tiers reach into
// both.
func (s *Server) CloseScrub() {
	if sc := s.scrubs.Swap(nil); sc != nil {
		sc.scr.Stop()
	}
}

// RunScrub runs one scrub cycle synchronously and returns its report.
func (s *Server) RunScrub() (*scrub.Report, error) {
	sc := s.scrubs.Load()
	if sc == nil {
		return nil, fmt.Errorf("service: scrubbing not enabled (start bccd with -scrub-interval)")
	}
	return sc.scr.RunCycle(), nil
}

// handleScrub serves POST /v1/admin/scrub: one synchronous cycle, report in
// the response.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	rep, err := s.RunScrub()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// --- wal tier ---------------------------------------------------------------

// walTier scrubs the store's WAL segments and snapshot images. Repair does
// not patch files: the in-memory registry is the authoritative state, so a
// compaction rewrites it into a fresh generation and retires the damaged
// file; a standby that cannot compact discards its cursor and resyncs from
// the primary instead.
type walTier struct {
	s     *Server
	d     *durability
	sc    *scrubState
	files map[string]durable.ScrubFile // rebuilt by List, read by Check
}

func (t *walTier) Name() string { return "wal" }

func (t *walTier) List() []string {
	fs := t.d.store.ScrubFiles()
	t.files = make(map[string]durable.ScrubFile, len(fs))
	names := make([]string, 0, len(fs))
	for _, f := range fs {
		t.files[f.Path] = f
		names = append(names, f.Path)
	}
	return names
}

func (t *walTier) Check(name string, iter int) (int64, error) {
	f, ok := t.files[name]
	if !ok {
		return 0, nil
	}
	b, err := scrub.ReadFile(name, iter)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // rotated or compacted away after List
		}
		return 0, err
	}
	if f.Limit > 0 && int64(len(b)) > f.Limit {
		// The active segment grew under us; only the completed-append
		// prefix captured at List time is promised well-formed.
		b = b[:f.Limit]
	}
	if f.Snapshot {
		return int64(len(b)), durable.CheckSnapshotImage(b, iter)
	}
	return int64(len(b)), durable.CheckWALImage(b, iter)
}

func (t *walTier) Repair(name string, cause error) (string, error) {
	if err := t.d.store.Compact(); err == nil {
		// Compaction rotated to a fresh generation and retired everything
		// older — including the damaged file. Sweep any leftover.
		if _, serr := os.Stat(name); serr == nil {
			_ = os.Remove(name)
		}
		return "compact", nil
	} else if rs := t.s.repls.Load(); rs != nil {
		if stb := rs.stb.Load(); stb != nil {
			// A standby with an unwritable or unrecoverable local store
			// still has the primary: drop the cursor, take a snapshot.
			stb.ForceResync()
			return "resync", nil
		}
		return "", fmt.Errorf("compact failed: %w", err)
	} else {
		return "", fmt.Errorf("compact failed: %w", err)
	}
}

func (t *walTier) Quarantine(name string, cause error) error {
	return t.sc.moveToQuarantine(name)
}

// --- result-spill tier ------------------------------------------------------

// spillTier scrubs the result spill. Beyond the frame checks, every
// sample-th record gets the full certificate treatment: rebuild the Result
// from the persisted labels, run the independent checker, and cross-check
// the aggregate counts against a decomposition of the graph's sparse
// certificate. Repair re-derives the record from the cheapest healthy
// source: the resident cache entry if one exists, else a recompute through
// the normal engine trunk (admission, breaker, fallback).
type spillTier struct {
	s      *Server
	d      *durability
	sc     *scrubState
	sample int
}

func (t *spillTier) Name() string { return "spill" }

func (t *spillTier) List() []string { return t.d.spill.Keys() }

func (t *spillTier) Check(key string, iter int) (int64, error) {
	b, err := scrub.ReadFile(t.d.spill.Path(key), iter)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // evicted after List
		}
		return 0, err
	}
	rec, err := durable.CheckSpillImage(b, key, iter)
	if err != nil {
		return int64(len(b)), err
	}
	if t.sample > 0 && iter%t.sample == 0 {
		if err := t.s.verifySpilledContent(rec); err != nil {
			return int64(len(b)), err
		}
	}
	return int64(len(b)), nil
}

// verifySpilledContent re-verifies a frame-clean spill record end to end
// against the live graph: frames can be pristine around labels that are
// simply wrong. Records for non-resident graphs or superseded generations
// have nothing to be checked against and pass.
func (s *Server) verifySpilledContent(rec durable.ResultRecord) error {
	key, ok := parseDurableKey(rec.Key())
	if !ok {
		return fmt.Errorf("unparseable spill record key %q", rec.Key())
	}
	g, info, okG := s.registry.AcquireInfo(key.fp)
	if !okG {
		return nil
	}
	defer s.registry.Release(key.fp)
	if info.Generation != key.gen {
		return nil
	}
	res, err := bicc.ReconstructResult(g, key.algo, rec.EdgeComponent)
	if err != nil {
		return fmt.Errorf("content: reconstruct: %w", err)
	}
	if err := bicc.Verify(g, res); err != nil {
		return fmt.Errorf("content: %w", err)
	}
	// Biconnectivity is preserved by the sparse certificate, so a
	// decomposition of the (much smaller) certificate must agree on every
	// aggregate the record claims.
	cert, _, err := bicc.SparseCertificate(g, nil)
	if err != nil {
		return nil // certificate construction unavailable says nothing about the record
	}
	cres, err := bicc.BiconnectedComponents(cert, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		return nil
	}
	if cres.NumComponents != res.NumComponents ||
		len(cres.ArticulationPoints()) != len(res.ArticulationPoints()) {
		return fmt.Errorf("content: certificate decomposition disagrees: %d/%d components, %d/%d cuts",
			cres.NumComponents, res.NumComponents,
			len(cres.ArticulationPoints()), len(res.ArticulationPoints()))
	}
	return nil
}

func (t *spillTier) Repair(key string, cause error) (string, error) {
	k, ok := parseDurableKey(key)
	if !ok {
		return "", fmt.Errorf("unparseable spill key %q", key)
	}
	// Cheapest source: the same result still resident in the memory tier
	// (promotion leaves the disk record in place, so both can coexist).
	if t.s.cache.Respill(k) {
		return "cache", nil
	}
	g, info, okG := t.s.registry.AcquireInfo(k.fp)
	if !okG {
		return "", fmt.Errorf("graph %s not resident", k.fp)
	}
	defer t.s.registry.Release(k.fp)
	if info.Generation != k.gen {
		return "", fmt.Errorf("graph %s is at generation %d, record wants %d", k.fp, info.Generation, k.gen)
	}
	ctx, cancel := context.WithTimeout(context.Background(), scrubRepairTimeout)
	defer cancel()
	qr, err := t.s.compute(ctx, g, k.algo, k.procs, nil)
	if err != nil {
		return "", err
	}
	if qr.Degraded {
		// The same no-degraded-results-persisted rule the cache applies.
		return "", fmt.Errorf("recompute degraded: %s", qr.DegradedCause)
	}
	view, err := json.Marshal(qr)
	if err != nil {
		return "", err
	}
	if err := t.d.spill.Put(durable.ResultRecord{
		FP: k.spillFP(), Algorithm: k.algo.String(), Procs: k.procs,
		EdgeComponent: qr.edgeComp, View: view,
	}); err != nil {
		return "", err
	}
	return "recompute", nil
}

func (t *spillTier) Quarantine(key string, cause error) error {
	if err := t.sc.moveToQuarantine(t.d.spill.Path(key)); err != nil {
		return err
	}
	t.d.spill.Remove(key) // drop the index entry; the file is already gone
	return nil
}

// parseDurableKey inverts resultKey.durableKey() ("fp[@gen]-algo-procs"):
// fingerprints are fixed-width hex with no dashes, so the first dash ends
// the fp[@gen] part and the last one starts procs.
func parseDurableKey(key string) (resultKey, bool) {
	i := strings.IndexByte(key, '-')
	j := strings.LastIndexByte(key, '-')
	if i <= 0 || j <= i || j+1 >= len(key) {
		return resultKey{}, false
	}
	procs, err := strconv.Atoi(key[j+1:])
	if err != nil || procs < 0 {
		return resultKey{}, false
	}
	fp := key[:i]
	var gen uint64
	if at := strings.IndexByte(fp, '@'); at >= 0 {
		gen, err = strconv.ParseUint(fp[at+1:], 10, 64)
		if err != nil {
			return resultKey{}, false
		}
		fp = fp[:at]
	}
	algo, err := parseAlgorithm(key[i+1 : j])
	if err != nil {
		return resultKey{}, false
	}
	return resultKey{fp: fp, gen: gen, algo: algo, procs: procs}, true
}

// --- replication-ring tier --------------------------------------------------

// ringTier scrubs the primary's in-memory retention ring. The ring is a
// catch-up buffer, not the durable copy (that is the WAL), so "repair" is
// retention truncation: ScrubRing drops everything through the newest
// damaged record, and a follower that needed the dropped range is served a
// full snapshot resync on its next connection — the same path as falling
// off the ring's tail.
type ringTier struct {
	s *Server
}

func (t *ringTier) Name() string { return "ring" }

func (t *ringTier) List() []string {
	if rs := t.s.repls.Load(); rs != nil && rs.pri.Load() != nil {
		return []string{"retention-ring"}
	}
	return nil
}

func (t *ringTier) Check(name string, iter int) (int64, error) {
	rs := t.s.repls.Load()
	if rs == nil {
		return 0, nil
	}
	p := rs.pri.Load()
	if p == nil {
		return 0, nil
	}
	rep := p.ScrubRing()
	if rep.Corrupt > 0 {
		return rep.Bytes, fmt.Errorf("%d of %d retained records failed checksum (%d dropped from retention)",
			rep.Corrupt, rep.Checked, rep.Dropped)
	}
	return rep.Bytes, nil
}

func (t *ringTier) Repair(name string, cause error) (string, error) {
	// ScrubRing already truncated the damaged range out of retention; the
	// WAL copy is intact and followers resync past the gap.
	return "retention-truncate", nil
}

func (t *ringTier) Quarantine(name string, cause error) error {
	return fmt.Errorf("ring damage is always repaired by truncation")
}

// --- metrics & statsz -------------------------------------------------------

// register exposes the scrub series. They exist only when scrubbing is
// enabled, so an unscrubbed bccd's /metrics output is unchanged.
func (sc *scrubState) register(s *Server) {
	reg := s.metrics
	scr := sc.scr
	reg.CounterVec("bicc_scrub_cycles_total",
		"Scrub cycles completed.").Func(scr.Cycles)
	reg.CounterVec("bicc_scrub_checked_total",
		"Durable artifacts re-verified by the scrubber.").Func(scr.Checked)
	reg.CounterVec("bicc_scrub_corrupt_total",
		"Artifacts the scrubber found damaged.").Func(scr.Corrupt)
	reg.CounterVec("bicc_scrub_repaired_total",
		"Damaged artifacts healed from a healthy source.").Func(scr.Repaired)
	reg.CounterVec("bicc_scrub_quarantined_total",
		"Unrepairable artifacts moved to the quarantine directory.").Func(scr.Quarantined)
	reg.CounterVec("bicc_scrub_bytes_total",
		"Bytes re-verified by the scrubber.").Func(scr.BytesScrubbed)
	reg.GaugeFunc("bicc_scrub_quarantine_files",
		"Artifacts resident in the quarantine directory.",
		func() float64 { return float64(len(sc.quarantineList())) })
}

// ScrubSnapshot is the /statsz scrub section, present only when EnableScrub
// has been called so an unscrubbed server's /statsz is byte-identical to
// older builds.
type ScrubSnapshot struct {
	Cycles          int64         `json:"cycles"`
	Checked         int64         `json:"checked"`
	Corrupt         int64         `json:"corrupt"`
	Repaired        int64         `json:"repaired"`
	Quarantined     int64         `json:"quarantined"`
	Bytes           int64         `json:"bytes"`
	QuarantineFiles []string      `json:"quarantine_files,omitempty"`
	Last            *scrub.Report `json:"last_cycle,omitempty"`
}

func (sc *scrubState) snapshot() *ScrubSnapshot {
	return &ScrubSnapshot{
		Cycles:          sc.scr.Cycles(),
		Checked:         sc.scr.Checked(),
		Corrupt:         sc.scr.Corrupt(),
		Repaired:        sc.scr.Repaired(),
		Quarantined:     sc.scr.Quarantined(),
		Bytes:           sc.scr.BytesScrubbed(),
		QuarantineFiles: sc.quarantineList(),
		Last:            sc.scr.LastReport(),
	}
}
