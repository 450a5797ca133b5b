package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bicc/internal/faults"
)

// Bit-rot injection sites on the verify paths. Unlike the durable.* write
// sites, these fire on the in-memory image about to be validated: a
// KindCorrupt rule flips one deterministic bit there, so scrub tests can
// exercise detection and repair without scribbling on real files.
var (
	// SiteWALVerify covers WAL segment and snapshot image verification.
	// iter = file index within the scrub pass.
	SiteWALVerify = faults.RegisterSite("wal.verify", false)
	// SiteSpillVerify covers result-spill image verification. iter = key
	// index within the scrub pass.
	SiteSpillVerify = faults.RegisterSite("spill.verify", false)
)

// ScrubFile describes one store-owned file for the scrubber.
type ScrubFile struct {
	Path string
	// Snapshot reports whether the file is a snapshot image (else a WAL
	// segment).
	Snapshot bool
	// Limit bounds verification to the file's first Limit bytes: the active
	// WAL grows under the scrubber's feet, and only the completed-append
	// prefix captured here is promised well-formed. 0 means the whole file.
	Limit int64
}

// ScrubFiles enumerates the store's on-disk artifacts for a scrub pass.
// Files may rotate or be retired by compaction after the listing; callers
// treat a vanished file as clean, not corrupt.
func (s *Store) ScrubFiles() []ScrubFile {
	s.mu.Lock()
	activeGen, activeLen := s.gen, s.walSize
	s.mu.Unlock()
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []ScrubFile
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "wal", ".log"); ok {
			f := ScrubFile{Path: filepath.Join(s.cfg.Dir, e.Name())}
			if g == activeGen {
				f.Limit = activeLen
			}
			out = append(out, f)
		}
		if _, ok := parseGen(e.Name(), "snap", ".bin"); ok {
			out = append(out, ScrubFile{Path: filepath.Join(s.cfg.Dir, e.Name()), Snapshot: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
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
// wal.verify injection site — snapshots are the same durable tier.
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

// CheckSpillImage re-validates a result-spill image for key and returns the
// decoded record so callers can sample-verify its content against the live
// graph. iter feeds the spill.verify injection site.
func CheckSpillImage(b []byte, key string, iter int) (ResultRecord, error) {
	faults.InjectCorrupt(SiteSpillVerify, 0, iter, b)
	if err := checkFileHeader(b, fileKindResult); err != nil {
		return ResultRecord{}, err
	}
	kind, payload, n, err := nextRecord(b[fileHeaderLen:])
	if err != nil {
		return ResultRecord{}, err
	}
	if n == 0 || kind != recResult || fileHeaderLen+n != len(b) {
		return ResultRecord{}, fmt.Errorf("%w: spill file framing", ErrCorrupt)
	}
	rec, err := DecodeResult(payload)
	if err != nil {
		return ResultRecord{}, err
	}
	if rec.Key() != key {
		return ResultRecord{}, fmt.Errorf("%w: spill key %q in file named %q", ErrCorrupt, rec.Key(), key)
	}
	return rec, nil
}

// Keys returns every key occupying the spill tier's directory: tracked
// entries plus any stray .res files (bit-rotted or hand-planted files the
// tier no longer indexes still hold disk and must be scrubbed), sorted.
func (s *Spill) Keys() []string {
	s.mu.Lock()
	set := make(map[string]bool, len(s.entries))
	for k := range s.entries {
		set[k] = true
	}
	s.mu.Unlock()
	if files, err := os.ReadDir(s.dir); err == nil {
		for _, f := range files {
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".res") {
				set[strings.TrimSuffix(f.Name(), ".res")] = true
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Path returns the file path a key is spilled at.
func (s *Spill) Path(key string) string { return s.spillFile(key) }
