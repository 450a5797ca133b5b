package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bicc"
	"bicc/internal/faults"
)

// Crash-injection sites in the write paths. Each marks an exact byte
// boundary: a KindKill rule there proves what recovery does when the
// process dies with the file in that state.
var (
	// siteWALHeader fires after a record's frame header is written but
	// before its payload: the torn-record case. iter = append sequence.
	siteWALHeader = faults.RegisterSite("durable.wal.header", false)
	// siteWALPayload fires after the full record is written but before
	// fsync: complete in the page cache, not yet forced to media.
	siteWALPayload = faults.RegisterSite("durable.wal.payload", false)
	// siteWALSync fires after fsync but before the append returns (before
	// the service acknowledges the client).
	siteWALSync = faults.RegisterSite("durable.wal.sync", false)
	// siteSnapWrite fires between records while the snapshot tmp file is
	// being written. iter = record index.
	siteSnapWrite = faults.RegisterSite("durable.snap.write", false)
	// siteSnapRename fires after the snapshot tmp is fully synced but
	// before the atomic rename installs it. iter = generation.
	siteSnapRename = faults.RegisterSite("durable.snap.rename", false)
)

// SyncMode selects when WAL appends are forced to stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs every append before it returns: an acknowledged
	// write survives both process death and machine crash. The default.
	SyncAlways SyncMode = iota
	// SyncInterval lets a background ticker fsync the WAL every
	// Config.SyncInterval: acknowledged writes survive process death
	// (SIGKILL, OOM) immediately but can lose up to one interval on a
	// machine crash.
	SyncInterval
	// SyncNone never fsyncs the WAL explicitly; the OS flushes at its own
	// pace. Snapshots are still fully synced.
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values onto SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown sync mode %q (want always, interval, or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// Config tunes a Store. Dir is required; zero values elsewhere pick
// defaults.
type Config struct {
	Dir string
	// Sync is the WAL fsync policy; the zero value is SyncAlways.
	Sync SyncMode
	// SyncInterval is the ticker period for SyncInterval mode; <= 0 means
	// 5ms.
	SyncInterval time.Duration
	// CompactBytes is the WAL size that triggers background snapshot
	// compaction; <= 0 means 64 MiB.
	CompactBytes int64
	// FsyncObserve, when non-nil, receives the duration of every WAL fsync
	// (the obs latency histogram hook).
	FsyncObserve func(time.Duration)
	// ReplayLogEvery makes Open report replay progress through Logf every
	// that many WAL records, so a long recovery is never silent. <= 0
	// disables progress logging.
	ReplayLogEvery int
	// ScrubInterval is the cadence of background scrub cycles (see Scrub);
	// <= 0 leaves scrubbing to explicit Scrub calls.
	ScrubInterval time.Duration
	// ScrubBudget caps the bytes a background scrub cycle verifies; <= 0
	// means unlimited.
	ScrubBudget int64
	// Logf receives replay progress and scrub lines; nil disables them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 5 * time.Millisecond
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 64 << 20
	}
	return c
}

// Recovery describes what Open reconstructed from disk.
type Recovery struct {
	// Graphs are the registry entries recovered from snapshot + WAL, sorted
	// by fingerprint.
	Graphs []GraphRecord
	// Truncations counts torn tails cut off (a crash landed mid-append).
	Truncations int
	// DroppedRecords counts records lost to CRC or decode failures.
	DroppedRecords int
	// WALRecords and SnapshotRecords count the records replayed from each
	// source.
	WALRecords      int
	SnapshotRecords int
	// Duration is the wall time recovery took.
	Duration time.Duration
}

// Store is the durable backend for the graph registry: an fsync'd
// write-ahead log replayed over periodic compacted snapshots. It keeps its
// own authoritative map of live entries (sharing graph pointers with the
// in-memory registry, so nothing is duplicated), which is what compaction
// snapshots — the WAL and the snapshot can therefore never disagree about
// what was acknowledged.
type Store struct {
	cfg Config

	mu      sync.Mutex
	wal     *os.File
	walSize int64 // current WAL file size including file header
	gen     uint64
	seq     int // append sequence, the fault-site iter
	state   map[string]GraphRecord
	closed  bool
	// compacting is non-nil while a compaction writes its snapshot and is
	// closed when it finishes: one compaction runs at a time.
	compacting chan struct{}
	appendObs  func(kind byte, payload []byte)

	// scrubMu serializes scrub cycles; scrubCursor is the path the last
	// cycle checked last, so the next one resumes after it. scrub is
	// replaced whole at the end of each cycle.
	scrubMu     sync.Mutex
	scrubCursor string
	scrub       atomic.Pointer[ScrubStats]

	appends       atomic.Int64
	walErrors     atomic.Int64
	compactions   atomic.Int64
	compactErrors atomic.Int64

	// stop ends the background loops (SyncInterval fsyncs, scrub cycles)
	// at Close; loops tracks them.
	stop  chan struct{}
	loops sync.WaitGroup
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.bin", gen))
}

// parseGen extracts the generation from a durable file name, reporting
// whether the name matches prefix-NNNNNNNN.ext.
func parseGen(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), ext)
	g, err := strconv.ParseUint(mid, 10, 64)
	return g, err == nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Errors are ignored: not every filesystem supports directory fsync, and
// the write-path fsyncs already cover the data itself.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Open replays the durable state under cfg.Dir (creating it if absent) and
// returns a Store positioned to append. Torn WAL tails are truncated,
// corrupt records dropped and counted — recovery refuses nothing short of
// an unreadable filesystem.
func Open(cfg Config) (*Store, *Recovery, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Config.Dir is required")
	}
	start := time.Now()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	rec := &Recovery{}
	s := &Store{cfg: cfg, state: map[string]GraphRecord{}, stop: make(chan struct{})}

	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	var walGens, snapGens []uint64
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "wal", ".log"); ok {
			walGens = append(walGens, g)
		}
		if g, ok := parseGen(e.Name(), "snap", ".bin"); ok {
			snapGens = append(snapGens, g)
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			// Leftover from a compaction the crash interrupted.
			_ = os.Remove(filepath.Join(cfg.Dir, e.Name()))
		}
	}
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })

	// Load the newest complete snapshot; incomplete or corrupt ones are
	// deleted and the next older tried.
	var snapGen uint64
	for i := len(snapGens) - 1; i >= 0; i-- {
		g := snapGens[i]
		b, err := os.ReadFile(snapPath(cfg.Dir, g))
		if err != nil {
			rec.DroppedRecords++
			continue
		}
		graphs, complete, dropped := scanSnapshot(b)
		if !complete {
			// A snapshot missing its end marker never finished its rename
			// dance cleanly; it cannot be trusted as a baseline.
			rec.DroppedRecords += dropped + len(graphs)
			_ = os.Remove(snapPath(cfg.Dir, g))
			continue
		}
		rec.DroppedRecords += dropped
		rec.SnapshotRecords = len(graphs)
		for _, gr := range graphs {
			s.state[gr.FP] = gr
		}
		snapGen = g
		break
	}

	// Replay WAL generations at or after the snapshot, oldest first. A
	// graph-add is checked, and its CSR built, only once its graph is
	// needed: by a delta record, by a later add that replaces it, or at the
	// end of replay. An add that a later record removes is never
	// converted. Until its check the entry keeps the graph it had, which an
	// add that fails the check leaves in place.
	pending := map[string]graphAdd{}
	adoptPending := func(fp string) {
		a, ok := pending[fp]
		if !ok {
			return
		}
		delete(pending, fp)
		gr, err := a.adopt()
		if err != nil {
			// A sound frame around an invalid graph: dropped like a body
			// the scan could not parse.
			rec.WALRecords--
			rec.DroppedRecords++
			return
		}
		s.state[fp] = gr
	}
	replayed := 0
	for _, g := range walGens {
		if g < snapGen {
			_ = os.Remove(walPath(cfg.Dir, g)) // superseded by the snapshot
			continue
		}
		path := walPath(cfg.Dir, g)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: reading %s: %w", path, err)
		}
		recs, validLen, truncated, dropped := scanWAL(b)
		rec.DroppedRecords += dropped
		if truncated {
			rec.Truncations++
			if err := os.Truncate(path, int64(validLen)); err != nil {
				return nil, nil, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
			}
		}
		rec.WALRecords += len(recs)
		for _, r := range recs {
			replayed++
			if cfg.ReplayLogEvery > 0 && cfg.Logf != nil && replayed%cfg.ReplayLogEvery == 0 {
				cfg.Logf("durable: WAL replay progress: %d records, %d graphs live, gen %d", replayed, len(s.state)+len(pending), g)
			}
			switch r.kind {
			case recGraphAdd:
				adoptPending(r.graph.FP)
				pending[r.graph.FP] = r.graph
			case recGraphRemove:
				delete(pending, r.fp)
				delete(s.state, r.fp)
			case recGraphDelta:
				adoptPending(r.delta.ID)
				prev, ok := s.state[r.delta.ID]
				if !ok {
					// Delta for a graph whose add record was itself dropped:
					// nothing to apply it to.
					rec.DroppedRecords++
					continue
				}
				ng, err := ReplayDelta(prev.Graph, r.delta)
				if err != nil {
					// The ops no longer match the graph — the entry has
					// diverged from what was acknowledged. Serving a wrong
					// graph is worse than serving none: drop the entry.
					rec.DroppedRecords++
					delete(s.state, r.delta.ID)
					continue
				}
				s.state[r.delta.ID] = GraphRecord{
					FP: prev.FP, Name: prev.Name, Gen: r.delta.Gen,
					CFP: r.delta.PostFP, Graph: ng,
				}
			}
		}
	}
	for fp := range pending {
		adoptPending(fp)
	}

	// Position the active WAL: append to the newest surviving generation,
	// or start generation max(snapGen,1) fresh.
	if n := len(walGens); n > 0 && walGens[n-1] >= snapGen {
		s.gen = walGens[n-1]
		f, err := os.OpenFile(walPath(cfg.Dir, s.gen), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		s.wal, s.walSize = f, st.Size()
		if s.walSize < fileHeaderLen {
			// The header itself was torn (crash between create and header
			// write): start the file over.
			f.Close()
			if err := s.createWAL(s.gen); err != nil {
				return nil, nil, err
			}
		}
	} else {
		s.gen = max(snapGen, 1)
		if err := s.createWAL(s.gen); err != nil {
			return nil, nil, err
		}
	}

	for _, gr := range s.state {
		rec.Graphs = append(rec.Graphs, gr)
	}
	sort.Slice(rec.Graphs, func(i, j int) bool { return rec.Graphs[i].FP < rec.Graphs[j].FP })
	rec.Duration = time.Since(start)

	if cfg.Sync == SyncInterval {
		s.loops.Add(1)
		go s.syncLoop()
	}
	if cfg.ScrubInterval > 0 {
		s.loops.Add(1)
		go s.scrubLoop()
	}
	return s, rec, nil
}

// createWAL starts a fresh WAL generation: header written and synced before
// any record can land in it.
func (s *Store) createWAL(gen uint64) error {
	f, err := os.OpenFile(walPath(s.cfg.Dir, gen), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(fileHeader(fileKindWAL)); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	syncDir(s.cfg.Dir)
	s.wal, s.walSize = f, fileHeaderLen
	return nil
}

// AppendAdd logs a graph record at its generation: an upload (generation
// 0; an empty CFP means FP), or a replicated record or resync baseline on
// a standby. Under SyncAlways it has been fsync'd when the call returns —
// the service may acknowledge the client.
func (s *Store) AppendAdd(rec GraphRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	if rec.CFP == "" {
		rec.CFP = rec.FP
	}
	if err := s.appendLocked(recGraphAdd, encodeGraph(rec)); err != nil {
		return err
	}
	s.state[rec.FP] = rec
	s.maybeCompactLocked()
	return nil
}

// AppendDelta logs a mutation batch against a registered graph and swaps the
// durable entry to the post-application graph at its new generation. Under
// SyncAlways the record has been fsync'd when the call returns — the service
// may acknowledge the mutation. newGraph is the already-applied edge list
// (the store persists the ops, not the graph; snapshots fold the applied
// graph in via the v2 payload).
func (s *Store) AppendDelta(rec DeltaRecord, newGraph *bicc.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	prev, ok := s.state[rec.ID]
	if !ok {
		return fmt.Errorf("durable: delta for unknown graph %s", rec.ID)
	}
	if err := s.appendLocked(recGraphDelta, EncodeDelta(rec)); err != nil {
		return err
	}
	s.state[rec.ID] = GraphRecord{
		FP: rec.ID, Name: prev.Name, Gen: rec.Gen, CFP: rec.PostFP, Graph: newGraph,
	}
	s.maybeCompactLocked()
	return nil
}

// AppendRemove logs a graph removal (explicit delete or budget eviction).
func (s *Store) AppendRemove(fp string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	if err := s.appendLocked(recGraphRemove, []byte(fp)); err != nil {
		return err
	}
	delete(s.state, fp)
	s.maybeCompactLocked()
	return nil
}

// appendLocked writes one framed record to the WAL. The frame header and
// payload are separate write(2) calls with an injection site between them,
// so a crash harness can manufacture a torn record at will. On a write
// error the file is truncated back to the last good record so the WAL
// never carries a misframed tail into later appends.
func (s *Store) appendLocked(kind byte, payload []byte) error {
	seq := s.seq
	s.seq++
	hdr := frameHeader(kind, payload)
	goodSize := s.walSize
	if _, err := s.wal.Write(hdr); err != nil {
		s.rollbackLocked(goodSize)
		return fmt.Errorf("durable: wal append: %w", err)
	}
	faults.Inject(nil, siteWALHeader, 0, seq)
	if _, err := s.wal.Write(payload); err != nil {
		s.rollbackLocked(goodSize)
		return fmt.Errorf("durable: wal append: %w", err)
	}
	faults.Inject(nil, siteWALPayload, 0, seq)
	if s.cfg.Sync == SyncAlways {
		t0 := time.Now()
		if err := s.wal.Sync(); err != nil {
			s.rollbackLocked(goodSize)
			return fmt.Errorf("durable: wal fsync: %w", err)
		}
		if s.cfg.FsyncObserve != nil {
			s.cfg.FsyncObserve(time.Since(t0))
		}
	}
	faults.Inject(nil, siteWALSync, 0, seq)
	s.walSize += int64(len(hdr) + len(payload))
	s.appends.Add(1)
	if s.appendObs != nil {
		s.appendObs(kind, payload)
	}
	return nil
}

// rollbackLocked cuts the WAL back to size after a failed append.
func (s *Store) rollbackLocked(size int64) {
	s.walErrors.Add(1)
	_ = s.wal.Truncate(size)
	_, _ = s.wal.Seek(size, 0)
}

// maybeCompactLocked starts a background compaction when the WAL has grown
// past the configured threshold. The WAL switch happens here, atomically
// with the state copy, which is what makes the snapshot exactly equal to
// the replay of every prior generation.
func (s *Store) maybeCompactLocked() {
	if s.compacting != nil || s.walSize < s.cfg.CompactBytes {
		return
	}
	if write, err := s.beginCompactLocked(); err == nil {
		go func() { _ = write() }() // failures are counted in compactErrors
	}
}

// beginCompactLocked rotates to a fresh generation, marks a compaction in
// flight, and returns the function that writes its snapshot and clears the
// mark. The caller must have waited out any earlier compaction.
func (s *Store) beginCompactLocked() (write func() error, err error) {
	old, oldGen, state, err := s.rotateLocked()
	if err != nil {
		s.compactErrors.Add(1)
		return nil, err
	}
	done := make(chan struct{})
	s.compacting = done
	return func() error {
		err := s.writeSnapshot(old, oldGen, state)
		s.mu.Lock()
		s.compacting = nil
		s.mu.Unlock()
		close(done)
		return err
	}, nil
}

// waitCompactionLocked waits out a compaction in flight, releasing s.mu
// while it waits.
func (s *Store) waitCompactionLocked() {
	for s.compacting != nil {
		done := s.compacting
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
}

// rotateLocked opens generation gen+1, switches appends onto it, and
// returns the completed previous WAL plus a copy of the state it implies.
func (s *Store) rotateLocked() (old *os.File, oldGen uint64, state []GraphRecord, err error) {
	old, oldGen = s.wal, s.gen
	prevSize := s.walSize
	if err := s.createWAL(s.gen + 1); err != nil {
		// Keep appending to the old generation; compaction will retry once
		// the next append crosses the threshold again.
		s.wal, s.walSize = old, prevSize
		return nil, 0, nil, err
	}
	s.gen++
	state = make([]GraphRecord, 0, len(s.state))
	for _, gr := range s.state {
		state = append(state, gr)
	}
	sort.Slice(state, func(i, j int) bool { return state[i].FP < state[j].FP })
	return old, oldGen, state, nil
}

// writeSnapshot persists state as snap-<gen> (gen = the new WAL generation)
// via the tmp+fsync+rename dance, then retires every older generation. On
// error every older generation stays, so replay still covers the state.
func (s *Store) writeSnapshot(old *os.File, oldGen uint64, state []GraphRecord) error {
	_ = old.Sync()
	_ = old.Close()
	gen := oldGen + 1
	tmp := snapPath(s.cfg.Dir, gen) + ".tmp"
	err := func() error {
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Write(fileHeader(fileKindSnapshot)); err != nil {
			return err
		}
		for i, gr := range state {
			payload := encodeGraph(gr)
			if _, err := f.Write(frameHeader(recGraphAdd, payload)); err != nil {
				return err
			}
			faults.Inject(nil, siteSnapWrite, 0, i)
			if _, err := f.Write(payload); err != nil {
				return err
			}
		}
		var count [4]byte
		putU32(count[:], uint32(len(state)))
		end := frameHeader(recSnapEnd, count[:])
		if _, err := f.Write(append(end, count[:]...)); err != nil {
			return err
		}
		return f.Sync()
	}()
	if err == nil {
		faults.Inject(nil, siteSnapRename, 0, int(gen))
		err = os.Rename(tmp, snapPath(s.cfg.Dir, gen))
	}
	if err != nil {
		s.compactErrors.Add(1)
		_ = os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	syncDir(s.cfg.Dir)
	s.compactions.Add(1)
	// Older generations are now fully contained in the new snapshot.
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "wal", ".log"); ok && g < gen {
			_ = os.Remove(filepath.Join(s.cfg.Dir, e.Name()))
		}
		if g, ok := parseGen(e.Name(), "snap", ".bin"); ok && g < gen {
			_ = os.Remove(filepath.Join(s.cfg.Dir, e.Name()))
		}
	}
	return nil
}

// Compact forces a synchronous compaction cycle (the scrubber's one repair,
// tests and operators; the production trigger is the byte threshold). A
// background compaction in flight is waited out first: its snapshot covers
// only the generations before its own rotation, so Compact then rotates and
// snapshots again. It returns an error when no snapshot was installed, in
// which case every older generation is still on disk.
func (s *Store) Compact() error {
	s.mu.Lock()
	s.waitCompactionLocked()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("durable: store closed")
	}
	write, err := s.beginCompactLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return write()
}

// syncLoop is the SyncInterval ticker: group-commit fsyncs off the append
// path.
func (s *Store) syncLoop() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				t0 := time.Now()
				if s.wal.Sync() == nil && s.cfg.FsyncObserve != nil {
					s.cfg.FsyncObserve(time.Since(t0))
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close stops the background loops, waits out any in-flight compaction, and
// flushes and closes the WAL. After a clean Close the next Open replays
// without truncating anything.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.loops.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitCompactionLocked()
	var err error
	if e := s.wal.Sync(); e != nil {
		err = e
	}
	if e := s.wal.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// --- introspection ----------------------------------------------------------

// WALBytes returns the active WAL's size in bytes.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// Generation returns the active WAL generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Appends returns how many records have been appended since Open.
func (s *Store) Appends() int64 { return s.appends.Load() }

// WALErrors returns how many appends failed and were rolled back.
func (s *Store) WALErrors() int64 { return s.walErrors.Load() }

// Compactions returns how many snapshot compactions have completed.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// CompactErrors returns how many compaction attempts failed.
func (s *Store) CompactErrors() int64 { return s.compactErrors.Load() }

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// --- scanners (shared with the fuzz targets) --------------------------------

// walRec is one decoded WAL record.
type walRec struct {
	kind  byte
	graph graphAdd    // for recGraphAdd, its edges not yet checked
	fp    string      // for recGraphRemove
	delta DeltaRecord // for recGraphDelta
}

// scanWAL decodes a WAL image. It returns the decoded records, the byte
// length of the valid prefix (file header + complete well-formed frames),
// whether the tail needs truncation, and how many structurally corrupt
// record bodies were dropped. Frame-level damage (torn or CRC-bad) stops
// the scan — everything after an unframeable point is unrecoverable noise —
// while body-level damage (valid frame, undecodable payload) drops just
// that record and continues. A graph-add record's edges are parsed, not
// checked: the caller adopts them.
func scanWAL(b []byte) (recs []walRec, validLen int, truncated bool, dropped int) {
	if err := checkFileHeader(b, fileKindWAL); err != nil {
		return nil, 0, len(b) > 0, 0
	}
	off := fileHeaderLen
	for {
		kind, payload, n, err := nextRecord(b[off:])
		if err != nil || n == 0 {
			return recs, off, err != nil, dropped
		}
		switch kind {
		case recGraphAdd:
			a, err := parseGraph(payload)
			if err != nil {
				dropped++
			} else {
				recs = append(recs, walRec{kind: recGraphAdd, graph: a})
			}
		case recGraphRemove:
			recs = append(recs, walRec{kind: recGraphRemove, fp: string(payload)})
		case recGraphDelta:
			dr, err := DecodeDelta(payload)
			if err != nil {
				dropped++
			} else {
				recs = append(recs, walRec{kind: recGraphDelta, delta: dr})
			}
		default:
			// An unknown record kind with a valid CRC is a future format or
			// scribbled disk; skip the record, keep its bytes as valid.
			dropped++
		}
		off += n
	}
}

// ReplayDelta applies a delta record to g with bicc.ApplyDeltas, the
// rules the primary checked the batch by, whose result needs no further
// check: WAL replay and a standby's delta apply both run it. A record
// whose ops no longer match g, or whose vertex count differs from the
// result's, is an error; the caller decides what to do with the diverged
// entry.
func ReplayDelta(g *bicc.Graph, rec DeltaRecord) (*bicc.Graph, error) {
	ng, _, err := bicc.ApplyDeltas(g, rec.Ops)
	if err != nil {
		return nil, err
	}
	if n := ng.NumVertices(); n != int(rec.NewN) {
		return nil, fmt.Errorf("durable: delta leaves %d vertices, record says %d", n, rec.NewN)
	}
	return ng, nil
}

// scanSnapshot decodes a snapshot image. complete reports that the end
// marker was present with a matching record count — an incomplete snapshot
// must not serve as a recovery baseline.
func scanSnapshot(b []byte) (graphs []GraphRecord, complete bool, dropped int) {
	if err := checkFileHeader(b, fileKindSnapshot); err != nil {
		return nil, false, 0
	}
	off := fileHeaderLen
	for {
		kind, payload, n, err := nextRecord(b[off:])
		if err != nil || n == 0 {
			return graphs, false, dropped
		}
		off += n
		switch kind {
		case recGraphAdd:
			gr, err := decodeGraph(payload)
			if err != nil {
				dropped++
				continue
			}
			graphs = append(graphs, gr)
		case recSnapEnd:
			if len(payload) != 4 {
				return graphs, false, dropped
			}
			want := uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24
			return graphs, uint32(len(graphs)+dropped) == want, dropped
		default:
			dropped++
		}
	}
}
