package repl

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bicc/internal/faults"
)

// Crash-injection sites on the replication path. A KindKill rule at one of
// these proves what failover does when the primary dies with the stream in
// that exact state.
var (
	// siteShip fires immediately before a record is written to a follower's
	// connection: the record is durable on the primary but has not left the
	// box. worker = follower id, iter = record sequence number.
	siteShip = faults.RegisterSite("repl.ship", false)
	// siteAck fires when a follower's ack has been read but not yet
	// recorded: the standby holds the record durably, the primary dies
	// before the client is acknowledged — the at-least-once analog of
	// durable.wal.sync. worker = follower id, iter = acked sequence.
	siteAck = faults.RegisterSite("repl.ack", false)
	// siteRing is the bit-rot injection site on the retention ring: a
	// KindCorrupt rule there flips one bit of a buffered record's own
	// payload just before the ship path re-verifies its checksum, as rot in
	// the buffer would. worker = follower id, iter = record sequence number.
	siteRing = faults.RegisterSite("repl.ring", false)
)

// ErrNoFollowers reports a quorum wait with zero connected standbys: the
// write proceeds un-replicated (a single-node deployment is not an error).
var ErrNoFollowers = errors.New("repl: no followers connected")

// ErrQuorumTimeout reports that the quorum wait expired before enough
// standbys acked. The write has already been fsync'd locally and MUST still
// be acknowledged to the client; the caller only counts the degrade.
var ErrQuorumTimeout = errors.New("repl: quorum ack timeout")

// record is one ring-buffered WAL record awaiting shipment. sum is a
// CRC-32C over (kind ++ payload) taken at publish time, so the ship path can
// refuse a record whose buffered bytes rotted after they were sequenced.
type record struct {
	seq     uint64
	kind    byte
	payload []byte
	sum     uint32
}

// ringSum computes a ring record's publish-time checksum.
func ringSum(kind byte, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum([]byte{kind}, msgCRCTable), msgCRCTable, payload)
}

// PrimaryConfig tunes a Primary. Zero values pick defaults.
type PrimaryConfig struct {
	// Epoch identifies this primary's reign; a promoted standby starts a new
	// primary at its predecessor's epoch + 1, which forces every follower of
	// the old reign through a snapshot resync. 0 means 1.
	Epoch uint64
	// RingSize is how many recent records are retained for follower
	// catch-up; a follower further behind gets a full snapshot resync
	// instead. <= 0 means 8192.
	RingSize int
	// Quorum is how many follower acks a WaitQuorum call requires;
	// <= 0 means 1.
	Quorum int
	// AckTimeout bounds WaitQuorum; <= 0 means 2s.
	AckTimeout time.Duration
	// Snapshot captures the full durable state and the replication sequence
	// number it is consistent with, for resync streams. Required.
	Snapshot func() (state []StateRecord, seq uint64)
	// PingInterval is the keepalive cadence on idle follower connections;
	// <= 0 means 500ms.
	PingInterval time.Duration
	// Logf receives connection lifecycle lines; nil disables them.
	Logf func(format string, args ...any)
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 8192
	}
	if c.Quorum <= 0 {
		c.Quorum = 1
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	return c
}

// follower is one connected standby.
type follower struct {
	id     int
	conn   net.Conn
	addr   string
	notify chan struct{} // capacity 1; poked on publish
	acked  uint64        // guarded by Primary.mu
}

// Primary owns the replication listener and the retention ring. Publish is
// called from the durable store's append observer (under the store mutex),
// so records arrive here in exactly WAL order.
type Primary struct {
	cfg PrimaryConfig
	ln  net.Listener

	// reign is a random run ID, fresh for every Primary instance. Sequence
	// numbers are meaningless across instances — a restarted primary begins
	// again at seq 1 over a possibly different history — so a follower whose
	// hello carries any other reign is snapshot-resynced, never
	// stream-continued. The epoch alone cannot enforce this: it is
	// configuration, and a restarted primary comes back with the same value.
	reign uint64

	mu        sync.Mutex
	ring      []record
	seq       uint64 // last assigned sequence
	followers map[int]*follower
	nextID    int
	closed    bool
	ackWake   chan struct{} // closed and replaced on every ack

	wg sync.WaitGroup

	shipped        atomic.Int64
	acks           atomic.Int64
	resyncs        atomic.Int64
	ringCorrupt    atomic.Int64
	quorumWaits    atomic.Int64
	quorumTimeouts atomic.Int64
	quorumAlone    atomic.Int64
}

// NewPrimary starts a Primary listening on addr (":0" picks a free port).
func NewPrimary(addr string, cfg PrimaryConfig) (*Primary, error) {
	cfg = cfg.withDefaults()
	if cfg.Snapshot == nil {
		return nil, fmt.Errorf("repl: PrimaryConfig.Snapshot is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen %s: %w", addr, err)
	}
	reign := rand.Uint64()
	for reign == 0 { // 0 is the follower-side "no reign yet" sentinel
		reign = rand.Uint64()
	}
	p := &Primary{
		cfg:       cfg,
		ln:        ln,
		reign:     reign,
		followers: map[int]*follower{},
		ackWake:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listener's address.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// Epoch returns this primary's reign number.
func (p *Primary) Epoch() uint64 { return p.cfg.Epoch }

// Reign returns this instance's random run ID.
func (p *Primary) Reign() uint64 { return p.reign }

// Publish assigns the next sequence number to a WAL record and queues it
// for every follower. Called under the durable store's mutex; it must not
// block. It returns the assigned sequence.
func (p *Primary) Publish(kind byte, payload []byte) uint64 {
	cp := append([]byte(nil), payload...)
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.ring = append(p.ring, record{seq: seq, kind: kind, payload: cp, sum: ringSum(kind, cp)})
	// Amortized trim: compacting on every publish would copy RingSize
	// records per call (under the durable store's mutex, transitively), so
	// let the slice grow to twice the retention floor and shed the older
	// half in one O(RingSize) move every RingSize publishes.
	if len(p.ring) >= 2*p.cfg.RingSize {
		p.ring = append(make([]record, 0, 2*p.cfg.RingSize), p.ring[len(p.ring)-p.cfg.RingSize:]...)
	}
	for _, f := range p.followers {
		select {
		case f.notify <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
	return seq
}

// Seq returns the last assigned sequence number.
func (p *Primary) Seq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// SetSeq positions the sequence counter (promotion: the new primary resumes
// numbering from what it had applied, so its followers' cursors stay
// meaningful within the new epoch).
func (p *Primary) SetSeq(seq uint64) {
	p.mu.Lock()
	if seq > p.seq {
		p.seq = seq
	}
	p.mu.Unlock()
}

// Followers returns how many standbys are connected.
func (p *Primary) Followers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.followers)
}

// FollowerInfo describes one connected standby for /statsz.
type FollowerInfo struct {
	Addr  string `json:"addr"`
	Acked uint64 `json:"acked_seq"`
	Lag   uint64 `json:"lag"`
}

// FollowerInfos returns a snapshot of every connected standby's progress.
func (p *Primary) FollowerInfos() []FollowerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerInfo, 0, len(p.followers))
	for _, f := range p.followers {
		out = append(out, FollowerInfo{Addr: f.addr, Acked: f.acked, Lag: p.seq - min(f.acked, p.seq)})
	}
	return out
}

// Lag returns the worst follower's distance from the tip, in records; 0
// with no followers.
func (p *Primary) Lag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var worst uint64
	for _, f := range p.followers {
		if l := p.seq - min(f.acked, p.seq); l > worst {
			worst = l
		}
	}
	return worst
}

// Shipped, Acks, Resyncs, RingCorrupt, QuorumTimeouts, QuorumAlone expose
// the primary's counters for metrics.
func (p *Primary) Shipped() int64        { return p.shipped.Load() }
func (p *Primary) Acks() int64           { return p.acks.Load() }
func (p *Primary) Resyncs() int64        { return p.resyncs.Load() }
func (p *Primary) RingCorrupt() int64    { return p.ringCorrupt.Load() }
func (p *Primary) QuorumTimeouts() int64 { return p.quorumTimeouts.Load() }
func (p *Primary) QuorumAlone() int64    { return p.quorumAlone.Load() }

// WaitQuorum blocks until cfg.Quorum followers have acked seq, the
// configured AckTimeout passes, or there are no followers at all. A non-nil
// error (ErrNoFollowers, ErrQuorumTimeout) means the record is NOT known
// replicated — the caller degrades to async and still acknowledges the
// client, because the record is already durable locally.
func (p *Primary) WaitQuorum(seq uint64) error {
	p.quorumWaits.Add(1)
	deadline := time.NewTimer(p.cfg.AckTimeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return ErrNoFollowers
		}
		if len(p.followers) == 0 {
			p.mu.Unlock()
			p.quorumAlone.Add(1)
			return ErrNoFollowers
		}
		n := 0
		for _, f := range p.followers {
			if f.acked >= seq {
				n++
			}
		}
		wake := p.ackWake
		p.mu.Unlock()
		if n >= p.cfg.Quorum {
			return nil
		}
		select {
		case <-wake:
		case <-deadline.C:
			p.quorumTimeouts.Add(1)
			return ErrQuorumTimeout
		}
	}
}

// Close stops the listener and disconnects every follower.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, f := range p.followers {
		_ = f.conn.Close()
	}
	close(p.ackWake)
	p.ackWake = make(chan struct{})
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		f := &follower{
			id:     p.nextID,
			conn:   conn,
			addr:   conn.RemoteAddr().String(),
			notify: make(chan struct{}, 1),
		}
		p.nextID++
		p.followers[f.id] = f
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serveFollower(f)
	}
}

// dropFollower removes f from the table and closes its connection.
func (p *Primary) dropFollower(f *follower) {
	p.mu.Lock()
	delete(p.followers, f.id)
	p.mu.Unlock()
	_ = f.conn.Close()
}

// serveFollower runs one standby connection: handshake, optional snapshot
// resync, then the record stream. A separate goroutine drains acks.
func (p *Primary) serveFollower(f *follower) {
	defer p.wg.Done()
	defer p.dropFollower(f)

	br := bufio.NewReader(f.conn)
	bw := bufio.NewWriter(f.conn)

	typ, payload, err := readMsg(br)
	if err != nil || typ != msgHello {
		p.logf("repl: follower %s: bad handshake: %v", f.addr, err)
		return
	}
	reign, epoch, lastSeq, err := parseHello(payload)
	if err != nil {
		p.logf("repl: follower %s: %v", f.addr, err)
		return
	}

	// Ack reader: runs until the connection dies.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			typ, payload, err := readMsg(br)
			if err != nil {
				return
			}
			if typ != msgAck {
				continue
			}
			seq, err := parseU64(payload, "ack")
			if err != nil {
				return
			}
			faults.Inject(nil, siteAck, f.id, int(seq))
			p.acks.Add(1)
			p.mu.Lock()
			if seq > f.acked {
				f.acked = seq
			}
			close(p.ackWake)
			p.ackWake = make(chan struct{})
			p.mu.Unlock()
		}
	}()

	// Decide the starting cursor: continue the stream only when the
	// follower's cursor came from THIS primary instance (reign match — an
	// epoch match is not enough, since a restarted primary re-announces its
	// configured epoch over a fresh, unrelated sequence space) and is still
	// inside the retention ring; anything else gets the full state.
	p.mu.Lock()
	cursor := lastSeq
	needSnap := reign != p.reign || epoch != p.cfg.Epoch || lastSeq > p.seq || !p.ringCoversLocked(lastSeq)
	p.mu.Unlock()

	if needSnap {
		snapSeq, ok := p.sendSnapshot(bw)
		if !ok {
			return
		}
		cursor = snapSeq
	}
	p.logf("repl: follower %s connected (epoch %d, cursor %d, resync %v)", f.addr, epoch, cursor, needSnap)

	ping := time.NewTicker(p.cfg.PingInterval)
	defer ping.Stop()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		var batch []record
		if cursor < p.seq {
			if !p.ringCoversLocked(cursor) {
				// Fell out of the ring while streaming (slow follower):
				// restart from a fresh snapshot on the same connection.
				p.mu.Unlock()
				snapSeq, ok := p.sendSnapshot(bw)
				if !ok {
					return
				}
				cursor = snapSeq
				continue
			}
			base := p.ring[0].seq
			batch = append(batch, p.ring[cursor+1-base:]...)
		}
		p.mu.Unlock()

		rotten := false
		for _, rec := range batch {
			faults.InjectCorrupt(siteRing, f.id, int(rec.seq), rec.payload)
			if ringSum(rec.kind, rec.payload) != rec.sum {
				rotten = true
				p.ringCorrupt.Add(1)
				p.logf("repl: ring record %d failed its checksum; resyncing follower %s", rec.seq, f.addr)
				break
			}
			faults.Inject(nil, siteShip, f.id, int(rec.seq))
			if err := writeMsg(bw, msgRecord, recordPayload(rec.seq, rec.kind, rec.payload)); err != nil {
				return
			}
			p.shipped.Add(1)
			cursor = rec.seq
		}
		if rotten {
			// A rotten record never ships. The follower gets the snapshot a
			// slow one gets; Snapshot pairs the state with the current
			// sequence, so its cursor lands past the damage and the ring
			// needs no truncation.
			snapSeq, ok := p.sendSnapshot(bw)
			if !ok {
				return
			}
			cursor = snapSeq
			continue
		}
		if err := bw.Flush(); err != nil {
			return
		}

		select {
		case <-f.notify:
		case <-ping.C:
			p.mu.Lock()
			tip := p.seq
			p.mu.Unlock()
			if writeMsg(bw, msgPing, u64Payload(tip)) != nil || bw.Flush() != nil {
				return
			}
		case <-ackDone:
			return
		}
	}
}

// ringCoversLocked reports whether the retention ring can serve records
// (cursor, seq]: either nothing is missing or the ring's oldest record is
// cursor+1 or earlier.
func (p *Primary) ringCoversLocked(cursor uint64) bool {
	if cursor >= p.seq {
		return true
	}
	if len(p.ring) == 0 {
		return false
	}
	return p.ring[0].seq <= cursor+1
}

// sendSnapshot streams the full durable state, returning the sequence the
// snapshot is consistent with.
func (p *Primary) sendSnapshot(bw *bufio.Writer) (uint64, bool) {
	p.resyncs.Add(1)
	state, seq := p.cfg.Snapshot()
	if err := writeMsg(bw, msgSnapBegin, snapBeginPayload(p.reign, p.cfg.Epoch, seq, len(state))); err != nil {
		return 0, false
	}
	for _, rec := range state {
		body := make([]byte, 1+len(rec.Payload))
		body[0] = rec.Kind
		copy(body[1:], rec.Payload)
		if err := writeMsg(bw, msgSnapRecord, body); err != nil {
			return 0, false
		}
	}
	if err := writeMsg(bw, msgSnapEnd, u32Payload(uint32(len(state)))); err != nil {
		return 0, false
	}
	return seq, bw.Flush() == nil
}
