// Package scrub is the self-healing loop over bccd's durable tiers. A
// Scrubber walks every registered Tier — WAL segments and snapshots, result
// spill files, the replication retention ring — re-verifying each
// artifact's checksums (and, where the tier chooses, its content against a
// recomputation), then escalating anything damaged through the tier's own
// repair ladder before quarantining what nothing can heal.
//
// Cycles are budgeted in verified bytes and resumable: each tier keeps a
// rotating cursor, so a budget too small for one full sweep still covers
// every artifact across consecutive cycles. Detection is proactive — the
// point is to find silent bit-rot before a query, a recovery, or a failover
// trips over it.
package scrub

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bicc/internal/faults"
)

// SiteRead is the generic bit-rot injection site on the scrubber's file
// reads: a KindCorrupt rule here flips one deterministic bit in the image
// just read, regardless of tier. iter = the artifact's index in the pass.
var SiteRead = faults.RegisterSite("scrub.read", false)

// ReadFile reads one artifact image and offers it to the scrub.read
// injection site before any verification sees it.
func ReadFile(path string, iter int) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	faults.InjectCorrupt(SiteRead, 0, iter, b)
	return b, nil
}

// Tier is one durable artifact class the scrubber walks. Implementations
// live next to the subsystems that own the artifacts (internal/service
// wires them up); the scrubber only sequences, budgets, and counts.
type Tier interface {
	// Name labels the tier in reports and metrics ("wal", "spill", ...).
	Name() string
	// List enumerates the tier's artifact names for one pass.
	List() []string
	// Check re-verifies one artifact and returns how many bytes it
	// examined. An artifact that legitimately vanished between List and
	// Check (rotation, eviction) returns (0, nil) — absence is not damage.
	Check(name string, iter int) (bytes int64, err error)
	// Repair heals a corrupt artifact from the cheapest healthy source
	// available, returning a label for the source used ("cache",
	// "recompute", "compact", "resync", ...).
	Repair(name string, cause error) (source string, err error)
	// Quarantine moves an unrepairable artifact aside so it cannot be
	// served, and records why.
	Quarantine(name string, cause error) error
}

// Config tunes a Scrubber.
type Config struct {
	// Interval is the background cycle cadence; <= 0 disables the
	// background loop (cycles run only via RunCycle).
	Interval time.Duration
	// Budget caps the bytes verified per cycle; <= 0 means unlimited. A
	// cycle that exhausts its budget stops early and the next one resumes
	// from each tier's cursor.
	Budget int64
	// Logf receives detection/repair/quarantine lines; nil disables them.
	Logf func(format string, args ...any)
}

// TierReport is one tier's share of a cycle Report.
type TierReport struct {
	Tier        string   `json:"tier"`
	Listed      int      `json:"listed"`
	Checked     int      `json:"checked"`
	Corrupt     int      `json:"corrupt"`
	Repaired    int      `json:"repaired"`
	Quarantined int      `json:"quarantined"`
	Bytes       int64    `json:"bytes"`
	Errors      []string `json:"errors,omitempty"`
}

// Report summarizes one scrub cycle.
type Report struct {
	Start       time.Time    `json:"start"`
	DurationNs  int64        `json:"duration_ns"`
	Budget      int64        `json:"budget,omitempty"`
	Truncated   bool         `json:"truncated,omitempty"` // budget ran out before full coverage
	Checked     int          `json:"checked"`
	Corrupt     int          `json:"corrupt"`
	Repaired    int          `json:"repaired"`
	Quarantined int          `json:"quarantined"`
	Bytes       int64        `json:"bytes"`
	Tiers       []TierReport `json:"tiers"`
}

// Scrubber sequences scrub cycles over its tiers.
type Scrubber struct {
	cfg   Config
	tiers []Tier

	runMu sync.Mutex // serializes cycles (manual sweeps vs the loop)

	mu      sync.Mutex
	cursors map[string]int

	cycles      atomic.Int64
	checked     atomic.Int64
	corrupt     atomic.Int64
	repaired    atomic.Int64
	quarantined atomic.Int64
	bytes       atomic.Int64

	last atomic.Pointer[Report]

	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// New builds a Scrubber over tiers. Call Start to run the background loop;
// RunCycle works either way.
func New(cfg Config, tiers ...Tier) *Scrubber {
	return &Scrubber{
		cfg:     cfg,
		tiers:   tiers,
		cursors: map[string]int{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (s *Scrubber) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// RunCycle runs one budgeted pass over every tier and returns its report.
// Cycles are serialized: a manual sweep overlapping the background loop
// waits rather than double-walking a tier.
func (s *Scrubber) RunCycle() *Report {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	start := time.Now()
	rep := &Report{Start: start, Budget: s.cfg.Budget}
	var spent int64
	for _, t := range s.tiers {
		tr := TierReport{Tier: t.Name()}
		names := t.List()
		tr.Listed = len(names)
		if len(names) > 0 {
			s.mu.Lock()
			cur := s.cursors[t.Name()] % len(names)
			s.mu.Unlock()
			for i := 0; i < len(names); i++ {
				if s.cfg.Budget > 0 && spent >= s.cfg.Budget {
					rep.Truncated = true
					break
				}
				idx := (cur + i) % len(names)
				name := names[idx]
				n, err := t.Check(name, idx)
				tr.Checked++
				tr.Bytes += n
				spent += n
				s.mu.Lock()
				s.cursors[t.Name()] = (idx + 1) % len(names)
				s.mu.Unlock()
				if err == nil {
					continue
				}
				tr.Corrupt++
				if len(tr.Errors) < 8 {
					tr.Errors = append(tr.Errors, name+": "+err.Error())
				}
				if src, rerr := t.Repair(name, err); rerr == nil {
					tr.Repaired++
					s.logf("scrub: %s %s: corrupt (%v); repaired from %s", t.Name(), name, err, src)
					continue
				} else {
					s.logf("scrub: %s %s: corrupt (%v); repair failed: %v", t.Name(), name, err, rerr)
				}
				if qerr := t.Quarantine(name, err); qerr != nil {
					s.logf("scrub: %s %s: quarantine failed: %v", t.Name(), name, qerr)
					if len(tr.Errors) < 8 {
						tr.Errors = append(tr.Errors, name+": quarantine: "+qerr.Error())
					}
				} else {
					tr.Quarantined++
					s.logf("scrub: %s %s: quarantined", t.Name(), name)
				}
			}
		}
		rep.Tiers = append(rep.Tiers, tr)
		rep.Checked += tr.Checked
		rep.Corrupt += tr.Corrupt
		rep.Repaired += tr.Repaired
		rep.Quarantined += tr.Quarantined
		rep.Bytes += tr.Bytes
	}
	rep.DurationNs = time.Since(start).Nanoseconds()
	s.cycles.Add(1)
	s.checked.Add(int64(rep.Checked))
	s.corrupt.Add(int64(rep.Corrupt))
	s.repaired.Add(int64(rep.Repaired))
	s.quarantined.Add(int64(rep.Quarantined))
	s.bytes.Add(rep.Bytes)
	s.last.Store(rep)
	return rep
}

// Start launches the background loop at cfg.Interval; a no-op when the
// interval is unset (manual cycles only).
func (s *Scrubber) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	if s.cfg.Interval <= 0 {
		close(s.done)
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.RunCycle()
			}
		}
	}()
}

// Stop halts the background loop and waits for an in-flight cycle to
// finish. Safe to call more than once, and required before tearing down the
// subsystems the tiers reach into.
func (s *Scrubber) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	if !s.started.Load() {
		return
	}
	<-s.done
	// A cycle the loop had already entered holds runMu; taking it here
	// means it has fully drained before Stop returns.
	s.runMu.Lock()
	s.runMu.Unlock() //nolint:staticcheck // empty critical section is the drain
}

// LastReport returns the most recent cycle's report, nil before any cycle.
func (s *Scrubber) LastReport() *Report { return s.last.Load() }

// Cycles, Checked, Corrupt, Repaired, Quarantined, and Bytes expose the
// scrubber's lifetime counters for metrics.
func (s *Scrubber) Cycles() int64        { return s.cycles.Load() }
func (s *Scrubber) Checked() int64       { return s.checked.Load() }
func (s *Scrubber) Corrupt() int64       { return s.corrupt.Load() }
func (s *Scrubber) Repaired() int64      { return s.repaired.Load() }
func (s *Scrubber) Quarantined() int64   { return s.quarantined.Load() }
func (s *Scrubber) BytesScrubbed() int64 { return s.bytes.Load() }
