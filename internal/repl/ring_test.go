package repl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bicc/internal/faults"
)

// ringPrimary is a primary over an in-memory durable state: every published
// record is appended to the state, and Snapshot pairs that state with
// p.Seq() under one mutex, as the service pairs the store with the ring.
type ringPrimary struct {
	*Primary
	mu    sync.Mutex
	state []StateRecord
}

func newRingPrimary(t *testing.T) *ringPrimary {
	t.Helper()
	rp := &ringPrimary{}
	rp.Primary = newTestPrimary(t, PrimaryConfig{Snapshot: func() ([]StateRecord, uint64) {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		return append([]StateRecord(nil), rp.state...), rp.Seq()
	}})
	return rp
}

func (rp *ringPrimary) publish(i int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	payload := []byte(fmt.Sprintf("ring-record-%02d", i))
	rp.state = append(rp.state, StateRecord{Kind: 1, Payload: payload})
	rp.Publish(1, payload)
}

// followerState is what a memApplier ends with: its last snapshot plus the
// records applied since.
func followerState(a *memApplier) []StateRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []StateRecord
	if n := len(a.resets); n > 0 {
		out = append(out, a.resets[n-1]...)
	}
	return append(out, a.recs...)
}

func sameState(t *testing.T, got, want []StateRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("follower holds %d records, primary %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: follower %q, primary %q", i, got[i].Payload, want[i].Payload)
		}
	}
}

// TestCleanRingRecordsShipWithoutResync proves the on-ship check passes
// clean records: ten records published to a connected follower all ship
// through the check, byte-identical, with no corrupt count and no resync
// beyond the initial one.
func TestCleanRingRecordsShipWithoutResync(t *testing.T) {
	p := newRingPrimary(t)
	a := &memApplier{}
	s := newTestStandby(t, p.Addr(), a)
	waitUntil(t, "initial resync", func() bool { return s.AppliedSeq() == 0 && a.resetCount() == 1 })

	for i := 1; i <= 10; i++ {
		p.publish(i)
	}
	waitUntil(t, "catch-up", func() bool { return s.AppliedSeq() == 10 })

	if p.RingCorrupt() != 0 || p.Shipped() != 10 || a.resetCount() != 1 {
		t.Fatalf("ring corrupt %d, shipped %d, resets %d; want 0, 10, 1",
			p.RingCorrupt(), p.Shipped(), a.resetCount())
	}
	p.mu.Lock()
	want := append([]StateRecord(nil), p.state...)
	p.mu.Unlock()
	sameState(t, a.applied(), want)
}

// TestCorruptRingRecordNeverShips flips one byte of a buffered record after
// Publish, as rot in the retention ring would, while its follower is
// disconnected. When the follower catches up through the ring, the primary
// must refuse the record, resync the follower from a snapshot taken at
// p.Seq(), and keep streaming: the follower never applies the flipped
// payload and ends with the primary's state.
func TestCorruptRingRecordNeverShips(t *testing.T) {
	p := newRingPrimary(t)
	for i := 1; i <= 3; i++ {
		p.publish(i)
	}
	a := &memApplier{}
	// A slow reconnect leaves the test time to rot the ring while the
	// follower is away.
	s, err := NewStandby(StandbyConfig{PrimaryAddr: p.Addr(), Applier: a,
		RetryMin: time.Second, RetryMax: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	waitUntil(t, "initial resync", func() bool { return s.AppliedSeq() == 3 })

	p.Primary.mu.Lock()
	for _, f := range p.followers {
		_ = f.conn.Close()
	}
	p.Primary.mu.Unlock()
	waitUntil(t, "follower dropped", func() bool { return p.Followers() == 0 })
	for i := 4; i <= 6; i++ {
		p.publish(i)
	}
	p.Primary.mu.Lock()
	var flipped []byte
	for i := range p.ring {
		if p.ring[i].seq == 5 {
			p.ring[i].payload[0] ^= 0x40
			flipped = append([]byte(nil), p.ring[i].payload...)
		}
	}
	p.Primary.mu.Unlock()
	if flipped == nil || p.Followers() != 0 {
		t.Fatalf("record 5 not rotted while the follower was away (followers %d)", p.Followers())
	}

	waitUntil(t, "catch-up past the damage", func() bool { return s.AppliedSeq() == 6 })
	p.publish(7)
	waitUntil(t, "stream after the resync", func() bool { return s.AppliedSeq() == 7 })

	a.mu.Lock()
	for _, r := range a.recs {
		if bytes.Equal(r.Payload, flipped) {
			t.Errorf("follower applied the flipped payload %q", flipped)
		}
	}
	resets := len(a.resets)
	a.mu.Unlock()
	if resets != 2 || p.RingCorrupt() != 1 {
		t.Fatalf("resets %d, ring corrupt %d; want the initial resync plus one for the rot, 1 corrupt",
			resets, p.RingCorrupt())
	}
	p.mu.Lock()
	want := append([]StateRecord(nil), p.state...)
	p.mu.Unlock()
	sameState(t, followerState(a), want)
}

// TestCorruptRingSiteFlipsTheRingOnShip drives the repl.ring injection site:
// it flips the ring's own copy of a record on its way to a connected
// follower, the check that follows refuses it, and the follower resyncs to
// the primary's state. The ring keeps the damaged record, untruncated.
func TestCorruptRingSiteFlipsTheRingOnShip(t *testing.T) {
	p := newRingPrimary(t)
	a := &memApplier{}
	s := newTestStandby(t, p.Addr(), a)
	waitUntil(t, "initial resync", func() bool { return s.AppliedSeq() == 0 && a.resetCount() == 1 })

	r := faults.NewRule(faults.KindCorrupt, "repl.ring")
	r.Iter, r.Count = 4, 1
	faults.Activate(&faults.Plan{Seed: 11, Rules: []*faults.Rule{r}})
	defer faults.Deactivate()
	for i := 1; i <= 8; i++ {
		p.publish(i)
	}
	waitUntil(t, "catch-up", func() bool { return s.AppliedSeq() == 8 })

	if r.Fired() != 1 || p.RingCorrupt() != 1 || a.resetCount() != 2 {
		t.Fatalf("fired %d, ring corrupt %d, resets %d; want 1, 1, 2",
			r.Fired(), p.RingCorrupt(), a.resetCount())
	}
	p.Primary.mu.Lock()
	rec := p.ring[3]
	p.Primary.mu.Unlock()
	if rec.seq != 4 || ringSum(rec.kind, rec.payload) == rec.sum {
		t.Fatalf("ring record %d still matches its checksum; the site must flip the ring's bytes", rec.seq)
	}
	p.mu.Lock()
	want := append([]StateRecord(nil), p.state...)
	p.mu.Unlock()
	sameState(t, followerState(a), want)
}
