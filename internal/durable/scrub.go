package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"bicc/internal/faults"
)

// SiteWALVerify is the bit-rot injection site on the verify path of WAL
// segment and snapshot images; iter = file index within the scrub cycle.
// Unlike the durable.* write sites, it fires on the in-memory image about
// to be validated: a KindCorrupt rule flips one deterministic bit there, so
// scrub tests can exercise detection and repair without scribbling on real
// files.
var SiteWALVerify = faults.RegisterSite("wal.verify", false)

// ScrubReport summarizes one scrub cycle.
type ScrubReport struct {
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Budget     int64     `json:"budget,omitempty"`
	// Truncated reports that the budget ran out before every listed file
	// was checked; the next cycle resumes after the last one checked.
	Truncated bool  `json:"truncated,omitempty"`
	Listed    int   `json:"listed"`
	Checked   int   `json:"checked"`
	Corrupt   int   `json:"corrupt"`
	Repaired  int   `json:"repaired"`
	Bytes     int64 `json:"bytes"`
	// Damaged lists the files still awaiting a compaction after this
	// cycle: the next cycle retries.
	Damaged []string `json:"damaged,omitempty"`
	Errors  []string `json:"errors,omitempty"`
}

// ScrubStats is the store's scrub state: lifetime totals and the files
// still awaiting a compaction.
type ScrubStats struct {
	Cycles   int64
	Checked  int64
	Corrupt  int64
	Repaired int64
	Bytes    int64
	Damaged  []string
}

// scrubFile is one store-owned file in a scrub cycle.
type scrubFile struct {
	path     string
	snapshot bool // a snapshot image, else a WAL segment
	// limit bounds verification to the file's first limit bytes: the
	// active WAL grows during the cycle, and only the completed-append
	// prefix captured at listing time is promised well-formed. 0 means the
	// whole file.
	limit int64
}

// scrubFiles lists the store's segments and snapshots, sorted by path.
// Files may rotate or be retired by compaction after the listing; a file
// that vanished is clean, not corrupt.
func (s *Store) scrubFiles() ([]scrubFile, error) {
	s.mu.Lock()
	activeGen, activeLen := s.gen, s.walSize
	s.mu.Unlock()
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []scrubFile
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "wal", ".log"); ok {
			f := scrubFile{path: filepath.Join(s.cfg.Dir, e.Name())}
			if g == activeGen {
				f.limit = activeLen
			}
			out = append(out, f)
		}
		if _, ok := parseGen(e.Name(), "snap", ".bin"); ok {
			out = append(out, scrubFile{path: filepath.Join(s.cfg.Dir, e.Name()), snapshot: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// check re-verifies one file and returns how many bytes it examined.
func (f scrubFile) check(iter int) (int64, error) {
	b, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return 0, nil // rotated or compacted away after the listing
	}
	if err != nil {
		return 0, err
	}
	if f.limit > 0 && int64(len(b)) > f.limit {
		b = b[:f.limit]
	}
	if f.snapshot {
		return int64(len(b)), CheckSnapshotImage(b, iter)
	}
	return int64(len(b)), CheckWALImage(b, iter)
}

// Scrub runs one scrub cycle. It re-verifies the store's segments and
// snapshots from a rotating cursor until budget bytes are spent (<= 0 means
// no limit), so consecutive cycles cover every file. If any file is
// damaged, whether found now or by an earlier cycle, or the data directory
// cannot be listed, it calls Compact: the snapshot of the in-memory state
// retires every older generation, the damaged files included. If Compact
// fails, nothing is moved or deleted; the damaged paths stay recorded and
// the next cycle retries. Cycles are serialized.
func (s *Store) Scrub(budget int64) *ScrubReport {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	rep := &ScrubReport{Start: time.Now(), Budget: budget}
	st := s.ScrubStats()
	damaged := slices.Clone(st.Damaged)
	note := func(path, cause string) {
		s.logf("durable: scrub: %s: %s", path, cause)
		if len(rep.Errors) < 8 {
			rep.Errors = append(rep.Errors, path+": "+cause)
		}
		if !slices.Contains(damaged, path) {
			damaged = append(damaged, path)
		}
	}

	files, listErr := s.scrubFiles()
	if listErr != nil {
		// An unlistable directory hides every file from the check: that is
		// damage, not a clean pass.
		note(s.cfg.Dir, listErr.Error())
	}
	rep.Listed = len(files)
	start := sort.Search(len(files), func(i int) bool { return files[i].path > s.scrubCursor })
	for i := range files {
		if budget > 0 && rep.Bytes >= budget {
			rep.Truncated = true
			break
		}
		idx := (start + i) % len(files)
		f := files[idx]
		s.scrubCursor = f.path
		n, err := f.check(idx)
		rep.Checked++
		rep.Bytes += n
		if err != nil {
			rep.Corrupt++
			note(f.path, err.Error())
		}
	}

	if len(damaged) > 0 {
		if err := s.Compact(); err != nil {
			rep.Errors = append(rep.Errors, "compact: "+err.Error())
			s.logf("durable: scrub: %d damaged files kept for the next cycle: %v", len(damaged), err)
		} else {
			rep.Repaired = len(damaged)
			s.logf("durable: scrub: compaction retired %d damaged files", len(damaged))
			damaged = nil
			if listErr != nil {
				damaged = []string{s.cfg.Dir} // healthy only once a cycle lists again
			}
		}
	}
	sort.Strings(damaged)
	rep.Damaged = damaged
	rep.DurationNs = time.Since(rep.Start).Nanoseconds()

	st.Cycles++
	st.Checked += int64(rep.Checked)
	st.Corrupt += int64(rep.Corrupt)
	st.Repaired += int64(rep.Repaired)
	st.Bytes += rep.Bytes
	st.Damaged = damaged
	s.scrub.Store(&st)
	return rep
}

// ScrubStats returns the scrub totals and the files awaiting a
// compaction. It takes no lock, so /healthz never waits on an fsync;
// callers must not modify the slice.
func (s *Store) ScrubStats() ScrubStats {
	if st := s.scrub.Load(); st != nil {
		return *st
	}
	return ScrubStats{}
}

// scrubLoop runs a scrub cycle every ScrubInterval until Close.
func (s *Store) scrubLoop() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Scrub(s.cfg.ScrubBudget)
		}
	}
}

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// CheckWALImage re-validates a WAL image (or a completed-append prefix of
// the active segment): every frame must parse with a matching CRC and every
// record body must decode. iter feeds the wal.verify injection site.
func CheckWALImage(b []byte, iter int) error {
	faults.InjectCorrupt(SiteWALVerify, 0, iter, b)
	_, validLen, truncated, dropped := scanWAL(b)
	if truncated || validLen != len(b) {
		return fmt.Errorf("%w: wal frame damage at offset %d", ErrCorrupt, validLen)
	}
	if dropped > 0 {
		return fmt.Errorf("%w: %d undecodable wal record bodies", ErrCorrupt, dropped)
	}
	return nil
}

// CheckSnapshotImage re-validates a snapshot image: complete (end marker
// with matching count) and every record decodable. iter feeds the
// wal.verify injection site — snapshots are checked by the same cycle.
func CheckSnapshotImage(b []byte, iter int) error {
	faults.InjectCorrupt(SiteWALVerify, 0, iter, b)
	_, complete, dropped := scanSnapshot(b)
	if !complete {
		return fmt.Errorf("%w: snapshot incomplete or misframed", ErrCorrupt)
	}
	if dropped > 0 {
		return fmt.Errorf("%w: %d undecodable snapshot records", ErrCorrupt, dropped)
	}
	return nil
}
