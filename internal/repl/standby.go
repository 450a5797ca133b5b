package repl

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Applier is the standby side's replay surface. Apply must make the record
// durable before returning — the ack the standby sends afterwards is the
// primary's proof that the record survives the standby's own crash. Reset
// replaces the entire state with a snapshot baseline.
type Applier interface {
	Apply(kind byte, payload []byte) error
	Reset(state []StateRecord) error
}

// StandbyConfig tunes a Standby. Zero values pick defaults.
type StandbyConfig struct {
	// PrimaryAddr is the primary's replication listener (host:port).
	// Required.
	PrimaryAddr string
	// Applier replays shipped records; required.
	Applier Applier
	// DialTimeout bounds one connection attempt; <= 0 means 2s.
	DialTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff; <= 0 means 100ms / 2s.
	RetryMin, RetryMax time.Duration
	// Logf receives lifecycle lines; nil disables them.
	Logf func(format string, args ...any)
}

func (c StandbyConfig) withDefaults() StandbyConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	return c
}

// Standby maintains a connection to the primary, replays the record stream
// through its Applier, and acks every applied sequence. It reconnects with
// jittered backoff forever until stopped; a fresh process (applied == 0,
// reign == 0), an epoch change, or any other primary instance than the one
// the cursor came from (reign mismatch — e.g. a restarted primary) forces a
// full snapshot resync.
type Standby struct {
	cfg StandbyConfig

	mu        sync.Mutex
	applied   uint64
	epoch     uint64
	reign     uint64 // run ID of the primary instance `applied` counts against
	connected bool
	conn      net.Conn
	stopped   bool

	appliedRecords atomic.Int64
	resyncs        atomic.Int64
	gaps           atomic.Int64
	applyErrors    atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// NewStandby starts the follow loop against cfg.PrimaryAddr.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	cfg = cfg.withDefaults()
	if cfg.PrimaryAddr == "" {
		return nil, fmt.Errorf("repl: StandbyConfig.PrimaryAddr is required")
	}
	if cfg.Applier == nil {
		return nil, fmt.Errorf("repl: StandbyConfig.Applier is required")
	}
	s := &Standby{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s, nil
}

// AppliedSeq returns the last sequence durably applied.
func (s *Standby) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Epoch returns the primary reign the standby is following (0 before the
// first snapshot).
func (s *Standby) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Connected reports whether the stream is currently up.
func (s *Standby) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// AppliedRecords, Resyncs, Gaps, ApplyErrors expose counters for metrics.
func (s *Standby) AppliedRecords() int64 { return s.appliedRecords.Load() }
func (s *Standby) Resyncs() int64        { return s.resyncs.Load() }
func (s *Standby) Gaps() int64           { return s.gaps.Load() }
func (s *Standby) ApplyErrors() int64    { return s.applyErrors.Load() }

// Stop ends the follow loop and closes any live connection. Idempotent;
// returns once the loop has exited. Used at shutdown and at promotion — a
// promoted standby must stop chasing its dead predecessor.
func (s *Standby) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	close(s.stop)
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
}

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Standby) run() {
	defer close(s.done)
	backoff := s.cfg.RetryMin
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		err := s.follow()
		select {
		case <-s.stop:
			return
		default:
		}
		if err != nil {
			s.logf("repl: standby: %v (reconnecting in %v)", err, backoff)
		}
		// Jittered exponential backoff so a herd of standbys does not
		// reconnect in lockstep after a primary restart.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff)+1))
		select {
		case <-s.stop:
			return
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > s.cfg.RetryMax {
			backoff = s.cfg.RetryMax
		}
	}
}

// forceResync zeroes the cursor so the next handshake gets a snapshot.
func (s *Standby) forceResync() {
	s.mu.Lock()
	s.applied, s.epoch, s.reign = 0, 0, 0
	s.mu.Unlock()
}

// follow runs one connection: handshake, then replay until the stream dies.
func (s *Standby) follow() error {
	conn, err := net.DialTimeout("tcp", s.cfg.PrimaryAddr, s.cfg.DialTimeout)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	s.conn = conn
	s.connected = true
	reign, epoch, applied := s.reign, s.epoch, s.applied
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.connected = false
		s.conn = nil
		s.mu.Unlock()
		_ = conn.Close()
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := writeMsg(bw, msgHello, helloPayload(reign, epoch, applied)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	ack := func(seq uint64) error {
		if err := writeMsg(bw, msgAck, u64Payload(seq)); err != nil {
			return err
		}
		return bw.Flush()
	}

	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			return err
		}
		switch typ {
		case msgSnapBegin:
			snapReign, snapEpoch, snapSeq, count, err := parseSnapBegin(payload)
			if err != nil {
				return err
			}
			state := make([]StateRecord, 0, count)
			for {
				t2, p2, err := readMsg(br)
				if err != nil {
					return err
				}
				if t2 == msgSnapEnd {
					want, err := parseU32(p2, "snap-end")
					if err != nil {
						return err
					}
					if int(want) != len(state) {
						return fmt.Errorf("repl: snapshot record count %d, trailer says %d", len(state), want)
					}
					break
				}
				if t2 != msgSnapRecord {
					return fmt.Errorf("repl: message type %d inside snapshot stream", t2)
				}
				if len(p2) < 1 {
					return fmt.Errorf("repl: empty snapshot record")
				}
				state = append(state, StateRecord{Kind: p2[0], Payload: append([]byte(nil), p2[1:]...)})
			}
			s.resyncs.Add(1)
			if err := s.cfg.Applier.Reset(state); err != nil {
				s.applyErrors.Add(1)
				s.forceResync()
				return fmt.Errorf("repl: applying snapshot: %w", err)
			}
			s.mu.Lock()
			s.applied, s.epoch, s.reign = snapSeq, snapEpoch, snapReign
			s.mu.Unlock()
			s.logf("repl: standby resynced: %d records, seq %d, epoch %d, reign %x", len(state), snapSeq, snapEpoch, snapReign)
			if err := ack(snapSeq); err != nil {
				return err
			}

		case msgRecord:
			seq, kind, body, err := parseRecord(payload)
			if err != nil {
				return err
			}
			s.mu.Lock()
			applied := s.applied
			s.mu.Unlock()
			if seq <= applied {
				// Duplicate from a reconnect race; re-ack our position.
				if err := ack(applied); err != nil {
					return err
				}
				continue
			}
			if seq != applied+1 {
				// A hole in the stream means our cursor is meaningless:
				// start over from a snapshot.
				s.gaps.Add(1)
				s.forceResync()
				return fmt.Errorf("repl: sequence gap: applied %d, got %d", applied, seq)
			}
			if err := s.cfg.Applier.Apply(kind, body); err != nil {
				s.applyErrors.Add(1)
				s.forceResync()
				return fmt.Errorf("repl: applying record %d: %w", seq, err)
			}
			s.appliedRecords.Add(1)
			s.mu.Lock()
			s.applied = seq
			s.mu.Unlock()
			if err := ack(seq); err != nil {
				return err
			}

		case msgPing:
			s.mu.Lock()
			applied := s.applied
			s.mu.Unlock()
			if err := ack(applied); err != nil {
				return err
			}

		default:
			return fmt.Errorf("repl: unexpected message type %d", typ)
		}
	}
}
