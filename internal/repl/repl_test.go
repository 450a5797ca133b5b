package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// memApplier is an in-memory Applier recording everything it replays.
type memApplier struct {
	mu     sync.Mutex
	recs   []StateRecord // records applied via Apply, in order
	resets [][]StateRecord
	fail   error // next Apply returns this once
}

func (a *memApplier) Apply(kind byte, payload []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fail != nil {
		err := a.fail
		a.fail = nil
		return err
	}
	a.recs = append(a.recs, StateRecord{Kind: kind, Payload: append([]byte(nil), payload...)})
	return nil
}

func (a *memApplier) Reset(state []StateRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cp := make([]StateRecord, len(state))
	copy(cp, state)
	a.resets = append(a.resets, cp)
	a.recs = nil
	return nil
}

func (a *memApplier) applied() []StateRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]StateRecord(nil), a.recs...)
}

func (a *memApplier) resetCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.resets)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTestPrimary(t *testing.T, cfg PrimaryConfig) *Primary {
	t.Helper()
	if cfg.Snapshot == nil {
		cfg.Snapshot = func() ([]StateRecord, uint64) { return nil, 0 }
	}
	p, err := NewPrimary("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func newTestStandby(t *testing.T, addr string, a Applier) *Standby {
	t.Helper()
	s, err := NewStandby(StandbyConfig{PrimaryAddr: addr, Applier: a, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestStreamDeliversInOrder publishes records before and after the standby
// connects and asserts they all arrive byte-identical, in order, and that a
// quorum wait completes once the standby acks.
func TestStreamDeliversInOrder(t *testing.T) {
	p := newTestPrimary(t, PrimaryConfig{})
	var want []StateRecord
	pub := func(i int) {
		payload := []byte(fmt.Sprintf("record-%d", i))
		p.Publish(byte(i%3+1), payload)
		want = append(want, StateRecord{Kind: byte(i%3 + 1), Payload: payload})
	}
	for i := 0; i < 3; i++ {
		pub(i) // published before the standby exists: served from the ring
	}
	a := &memApplier{}
	s := newTestStandby(t, p.Addr(), a)
	waitUntil(t, "standby catch-up", func() bool { return s.AppliedSeq() == 3 })
	for i := 3; i < 8; i++ {
		pub(i)
	}
	if err := p.WaitQuorum(p.Seq()); err != nil {
		t.Fatalf("WaitQuorum: %v", err)
	}
	if s.AppliedSeq() != 8 {
		t.Fatalf("applied %d after quorum, want 8", s.AppliedSeq())
	}
	got := a.applied()
	if len(got) != len(want) {
		t.Fatalf("applied %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got kind %d %q, want kind %d %q",
				i, got[i].Kind, got[i].Payload, want[i].Kind, want[i].Payload)
		}
	}
	if p.Followers() != 1 || p.Lag() != 0 {
		t.Fatalf("followers %d lag %d, want 1 and 0", p.Followers(), p.Lag())
	}
}

// TestRingOverflowForcesSnapshot publishes far past a tiny retention ring so
// a fresh standby cannot be served incrementally: it must get the snapshot,
// positioned at the snapshot's sequence.
func TestRingOverflowForcesSnapshot(t *testing.T) {
	state := []StateRecord{
		{Kind: 1, Payload: []byte("alpha")},
		{Kind: 1, Payload: []byte("beta")},
	}
	var snapSeq uint64
	var mu sync.Mutex
	p := newTestPrimary(t, PrimaryConfig{
		RingSize: 4,
		Snapshot: func() ([]StateRecord, uint64) {
			mu.Lock()
			defer mu.Unlock()
			return state, snapSeq
		},
	})
	for i := 0; i < 20; i++ {
		p.Publish(1, []byte(fmt.Sprintf("r%d", i)))
	}
	mu.Lock()
	snapSeq = p.Seq()
	mu.Unlock()

	a := &memApplier{}
	s := newTestStandby(t, p.Addr(), a)
	waitUntil(t, "snapshot resync", func() bool { return s.AppliedSeq() == 20 })
	if s.Resyncs() != 1 {
		t.Fatalf("standby resyncs %d, want 1", s.Resyncs())
	}
	if a.resetCount() != 1 {
		t.Fatalf("applier resets %d, want 1", a.resetCount())
	}
	a.mu.Lock()
	got := a.resets[0]
	a.mu.Unlock()
	if len(got) != 2 || !bytes.Equal(got[0].Payload, []byte("alpha")) || !bytes.Equal(got[1].Payload, []byte("beta")) {
		t.Fatalf("snapshot state %v", got)
	}
	// The stream continues seamlessly past the snapshot.
	p.Publish(2, []byte("after"))
	waitUntil(t, "post-snapshot record", func() bool { return s.AppliedSeq() == 21 })
	if got := a.applied(); len(got) != 1 || !bytes.Equal(got[0].Payload, []byte("after")) {
		t.Fatalf("post-snapshot records %v", got)
	}
}

// TestGapForcesResync runs a deliberately broken primary that skips a
// sequence number; the standby must refuse to apply past the hole, count
// the gap, and come back asking for a snapshot.
func TestGapForcesResync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	hellos := make(chan uint64, 4) // lastSeq of each handshake
	go func() {
		for conn, err := ln.Accept(); err == nil; conn, err = ln.Accept() {
			go func(c net.Conn) {
				defer c.Close()
				br, bw := bufio.NewReader(c), bufio.NewWriter(c)
				typ, payload, err := readMsg(br)
				if err != nil || typ != msgHello {
					return
				}
				_, _, lastSeq, _ := parseHello(payload)
				hellos <- lastSeq
				// Empty snapshot at seq 5, then a record at seq 7: a hole.
				_ = writeMsg(bw, msgSnapBegin, snapBeginPayload(9, 1, 5, 0))
				_ = writeMsg(bw, msgSnapEnd, u32Payload(0))
				_ = writeMsg(bw, msgRecord, recordPayload(7, 1, []byte("x")))
				_ = bw.Flush()
				// Drain acks until the standby hangs up in disgust.
				for {
					if _, _, err := readMsg(br); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	a := &memApplier{}
	s := newTestStandby(t, ln.Addr().String(), a)
	waitUntil(t, "gap detection", func() bool { return s.Gaps() >= 1 })
	// The reconnect handshake must start from zero: cursor discarded.
	<-hellos // first connection
	select {
	case lastSeq := <-hellos:
		if lastSeq != 0 {
			t.Fatalf("post-gap handshake lastSeq %d, want 0", lastSeq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never reconnected after the gap")
	}
	if got := a.applied(); len(got) != 0 {
		t.Fatalf("records applied across a gap: %v", got)
	}
}

// TestWaitQuorumDegrades covers the two degrade paths: no followers at all,
// and a follower that never acks within the timeout.
func TestWaitQuorumDegrades(t *testing.T) {
	p := newTestPrimary(t, PrimaryConfig{AckTimeout: 50 * time.Millisecond})
	p.Publish(1, []byte("solo"))
	if err := p.WaitQuorum(p.Seq()); !errors.Is(err, ErrNoFollowers) {
		t.Fatalf("WaitQuorum alone: %v, want ErrNoFollowers", err)
	}

	// A follower that handshakes but never acks.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeMsg(bw, msgHello, helloPayload(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "mute follower registered", func() bool { return p.Followers() == 1 })
	p.Publish(1, []byte("stuck"))
	if err := p.WaitQuorum(p.Seq()); !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("WaitQuorum with mute follower: %v, want ErrQuorumTimeout", err)
	}
}

// TestStandbyRecoversAfterPrimaryRestart kills the primary's listener and
// starts a new one (a new epoch) on a fresh address; a standby retargeted
// through reconnection is out of scope — instead this asserts that a
// standby following an address that dies keeps retrying and resumes when a
// primary returns at the same address with a NEW epoch, which must force a
// full resync rather than a silent continuation.
func TestStandbyRecoversAfterPrimaryRestart(t *testing.T) {
	p1, err := NewPrimary("127.0.0.1:0", PrimaryConfig{
		Epoch:    1,
		Snapshot: func() ([]StateRecord, uint64) { return nil, 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := p1.Addr()
	p1.Publish(1, []byte("one"))
	a := &memApplier{}
	s := newTestStandby(t, addr, a)
	waitUntil(t, "first catch-up", func() bool { return s.AppliedSeq() == 1 })
	_ = p1.Close()

	// Same address, epoch 2, state says two records exist.
	state := []StateRecord{{Kind: 1, Payload: []byte("one")}, {Kind: 1, Payload: []byte("two")}}
	p2, err := NewPrimary(addr, PrimaryConfig{
		Epoch:    2,
		Snapshot: func() ([]StateRecord, uint64) { return state, 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitUntil(t, "epoch-change resync", func() bool { return s.Epoch() == 2 && s.AppliedSeq() == 2 })
	if a.resetCount() < 1 {
		t.Fatal("epoch change did not force a snapshot resync")
	}
}

// TestPrimaryRestartSameEpochForcesResync is the cross-history divergence
// case: the primary restarts with the SAME configured epoch and re-publishes
// at least as many records as the standby had applied, so the standby's
// cursor lands inside the new instance's retention ring. Epoch comparison
// alone would stream-continue across two unrelated histories — keeping the
// old reign's records and silently missing the new reign's first N. The
// per-instance reign ID in the handshake must force a full snapshot resync
// instead.
func TestPrimaryRestartSameEpochForcesResync(t *testing.T) {
	p1, err := NewPrimary("127.0.0.1:0", PrimaryConfig{
		Epoch:    1,
		Snapshot: func() ([]StateRecord, uint64) { return nil, 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := p1.Addr()
	p1.Publish(1, []byte("old-1"))
	p1.Publish(1, []byte("old-2"))
	a := &memApplier{}
	s := newTestStandby(t, addr, a)
	waitUntil(t, "old-reign catch-up", func() bool { return s.AppliedSeq() == 2 })
	_ = p1.Close()

	// Same address, same epoch, different history: three records the standby
	// has never seen. The snapshot stays consistent with the publish cursor
	// under the mutex, mirroring how the service pairs the two.
	var mu sync.Mutex
	var state []StateRecord
	p2, err := NewPrimary(addr, PrimaryConfig{
		Epoch: 1,
		Snapshot: func() ([]StateRecord, uint64) {
			mu.Lock()
			defer mu.Unlock()
			return append([]StateRecord(nil), state...), uint64(len(state))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 1; i <= 3; i++ {
		payload := []byte(fmt.Sprintf("new-%d", i))
		mu.Lock()
		state = append(state, StateRecord{Kind: 1, Payload: payload})
		mu.Unlock()
		p2.Publish(1, payload)
	}

	waitUntil(t, "new-reign resync", func() bool { return s.AppliedSeq() == 3 })
	if a.resetCount() < 1 {
		t.Fatal("primary restart with the same epoch did not force a snapshot resync")
	}
	// Whatever mix of snapshot and streamed records arrived, the standby's
	// final contents must be exactly the new reign's history.
	a.mu.Lock()
	got := append([]StateRecord(nil), a.resets[len(a.resets)-1]...)
	got = append(got, a.recs...)
	a.mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("standby holds %d records after resync, want 3", len(got))
	}
	for i, rec := range got {
		want := fmt.Sprintf("new-%d", i+1)
		if string(rec.Payload) != want {
			t.Fatalf("record %d: %q, want %q — stream continued across histories", i, rec.Payload, want)
		}
	}
}
