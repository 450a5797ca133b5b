package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bicc/internal/durable"
	"bicc/internal/faults"
	"bicc/internal/repl"
)

// sitePromote fires once per registry entry during a standby's promotion
// fingerprint re-check. A KindKill rule here proves that a node dying
// mid-promotion leaves a state the NEXT promotion (or restart) recovers
// byte-identically — promotion is just PR 4 recovery plus a role flip, so
// it inherits recovery's idempotence. iter = entry index.
var sitePromote = faults.RegisterSite("repl.promote", false)

const (
	roleNone int32 = iota
	rolePrimary
	roleStandby
)

// ReplConfig wires a Server into a replication topology. Durability must be
// enabled first: replication ships the WAL, so there must be one.
type ReplConfig struct {
	// ListenAddr is the replication listener (host:port, ":0" picks a
	// port). A primary serves standbys here; a standby keeps it to start
	// its own listener at promotion. Empty on a standby means the promoted
	// node serves clients but accepts no followers.
	ListenAddr string
	// FollowAddr, when non-empty, starts the server as a warm standby
	// following the primary's replication listener at this address.
	FollowAddr string
	// Quorum is how many standby acks a write waits for before the client
	// is acknowledged, when followers are connected; <= 0 means 1. The
	// wait degrades (never fails) on timeout or when no follower is up —
	// the record is already durable locally.
	Quorum int
	// AckTimeout bounds the per-write quorum wait; <= 0 means 2s.
	AckTimeout time.Duration
	// RingSize is the primary's record retention for follower catch-up;
	// <= 0 means 8192.
	RingSize int
	// Logf receives replication lifecycle lines; nil disables them.
	Logf func(format string, args ...any)
}

// replState is a Server's live replication state, held through an atomic
// pointer like durability.
type replState struct {
	cfg ReplConfig
	d   *durability

	role  atomic.Int32
	epoch atomic.Uint64
	pri   atomic.Pointer[repl.Primary]
	stb   atomic.Pointer[repl.Standby]

	// mu serializes promotion and shutdown.
	mu sync.Mutex

	promotions     atomic.Int64
	quorumDegrades atomic.Int64
	promoteDropped atomic.Int64
	refollows      atomic.Int64
}

// EnableReplication starts the server in the role cfg implies: standby when
// FollowAddr is set, otherwise primary. Requires EnableDurability first; a
// second call is an error.
func (s *Server) EnableReplication(cfg ReplConfig) error {
	d := s.dur.Load()
	if d == nil {
		return fmt.Errorf("service: replication requires durability (call EnableDurability first)")
	}
	if s.repls.Load() != nil {
		return fmt.Errorf("service: replication already enabled")
	}
	rs := &replState{cfg: cfg, d: d}

	// The observer is installed for both roles: on a standby it publishes
	// nothing until promotion installs a Primary. It runs under the store
	// mutex, so published records are in exact WAL order.
	d.store.SetAppendObserver(func(kind byte, payload []byte) {
		if p := rs.pri.Load(); p != nil {
			p.Publish(kind, payload)
		}
	})

	if cfg.FollowAddr != "" {
		stb, err := repl.NewStandby(repl.StandbyConfig{
			PrimaryAddr: cfg.FollowAddr,
			Applier:     &replApplier{s: s, d: d},
			Logf:        cfg.Logf,
		})
		if err != nil {
			d.store.SetAppendObserver(nil)
			return err
		}
		rs.stb.Store(stb)
		rs.role.Store(roleStandby)
	} else {
		p, err := rs.newPrimary(s, 1)
		if err != nil {
			d.store.SetAppendObserver(nil)
			return err
		}
		rs.pri.Store(p)
		rs.epoch.Store(p.Epoch())
		rs.role.Store(rolePrimary)
	}
	rs.register(s)
	s.repls.Store(rs)
	return nil
}

// newPrimary builds the Primary for rs at the given epoch, with a snapshot
// callback that pairs the durable state with the replication cursor under
// the store mutex (appends publish under the same mutex, so the pairing is
// exact).
func (rs *replState) newPrimary(s *Server, epoch uint64) (*repl.Primary, error) {
	snapshot := func() ([]repl.StateRecord, uint64) {
		var recs []repl.StateRecord
		var seq uint64
		rs.d.store.View(func(state []durable.GraphRecord) {
			if p := rs.pri.Load(); p != nil {
				seq = p.Seq()
			}
			for _, gr := range state {
				recs = append(recs, repl.StateRecord{
					Kind: durable.RecGraphAdd, Payload: durable.EncodeGraphRecord(gr),
				})
			}
		})
		return recs, seq
	}
	return repl.NewPrimary(rs.cfg.ListenAddr, repl.PrimaryConfig{
		Epoch:      epoch,
		RingSize:   rs.cfg.RingSize,
		Quorum:     rs.cfg.Quorum,
		AckTimeout: rs.cfg.AckTimeout,
		Snapshot:   snapshot,
		Logf:       rs.cfg.Logf,
	})
}

// CloseReplication stops the replication machinery (both roles). Call after
// the HTTP server has stopped.
func (s *Server) CloseReplication() {
	rs := s.repls.Swap(nil)
	if rs == nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if stb := rs.stb.Swap(nil); stb != nil {
		stb.Stop()
	}
	if p := rs.pri.Swap(nil); p != nil {
		_ = p.Close()
	}
	rs.d.store.SetAppendObserver(nil)
}

// ReplAddr returns the replication listener's address ("" when not serving
// one) — the daemon logs it, tests dial it.
func (s *Server) ReplAddr() string {
	rs := s.repls.Load()
	if rs == nil {
		return ""
	}
	if p := rs.pri.Load(); p != nil {
		return p.Addr()
	}
	return ""
}

// replRole returns the current role constant.
func (s *Server) replRole() int32 {
	rs := s.repls.Load()
	if rs == nil {
		return roleNone
	}
	return rs.role.Load()
}

// rejectStandby answers writes on a read-only standby with 503 +
// Retry-After (the router retries against the primary), reporting whether
// it handled the request.
func (s *Server) rejectStandby(w http.ResponseWriter) bool {
	if s.replRole() != roleStandby {
		return false
	}
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "read-only standby: send writes to the primary")
	return true
}

// replWaitQuorum blocks an acknowledged write until the configured number
// of standbys have acked it (bounded by AckTimeout). It never fails the
// write: the record is durable locally, so a missing quorum only degrades
// to async replication and is counted.
func (s *Server) replWaitQuorum() {
	rs := s.repls.Load()
	if rs == nil {
		return
	}
	p := rs.pri.Load()
	if p == nil {
		return
	}
	if err := p.WaitQuorum(p.Seq()); err != nil {
		if err == repl.ErrQuorumTimeout {
			rs.quorumDegrades.Add(1)
		}
	}
}

// --- standby apply path ------------------------------------------------------

// replApplier replays shipped WAL records into the standby's own store and
// registry. Apply appends to the local WAL FIRST (fsync-before-ack, the
// same discipline as the primary's write path): when the ack goes out, the
// record survives the standby's own crash too.
type replApplier struct {
	s *Server
	d *durability
}

func (a *replApplier) Apply(kind byte, payload []byte) error {
	s := a.s
	switch kind {
	case durable.RecGraphAdd:
		gr, err := durable.DecodeGraphRecord(payload)
		if err != nil {
			return err
		}
		if err := a.d.store.AppendState(gr); err != nil {
			return err
		}
		s.installReplicated(gr)
	case durable.RecGraphRemove:
		fp := string(payload)
		if err := a.d.store.AppendRemove(fp); err != nil {
			return err
		}
		s.registry.Remove(fp)
		s.purgeDerived(fp)
	case durable.RecGraphDelta:
		rec, err := durable.DecodeDelta(payload)
		if err != nil {
			return err
		}
		g, _, ok := s.registry.AcquireInfo(rec.ID)
		if !ok {
			return fmt.Errorf("service: replicated delta for unknown graph %s", rec.ID)
		}
		ng, err := durable.ApplyDelta(g, rec)
		s.registry.Release(rec.ID)
		if err != nil {
			return err
		}
		if Fingerprint(ng) != rec.PostFP {
			return fmt.Errorf("service: replicated delta for %s gen %d: post-fingerprint mismatch", rec.ID, rec.Gen)
		}
		if err := a.d.store.AppendDelta(rec, ng); err != nil {
			return err
		}
		s.registry.Replace(rec.ID, ng, rec.Gen, rec.PostFP)
		s.purgeDerived(rec.ID)
	default:
		return fmt.Errorf("service: replicated record kind %d unknown", kind)
	}
	return nil
}

// Reset installs a snapshot baseline: registry entries not in the snapshot
// are removed, stale or missing ones (re)installed. Everything also lands
// in the local WAL so a restart recovers the same state.
func (a *replApplier) Reset(state []repl.StateRecord) error {
	s := a.s
	keep := map[string]bool{}
	decoded := make([]durable.GraphRecord, 0, len(state))
	for _, sr := range state {
		if sr.Kind != durable.RecGraphAdd {
			return fmt.Errorf("service: snapshot record kind %d unknown", sr.Kind)
		}
		gr, err := durable.DecodeGraphRecord(sr.Payload)
		if err != nil {
			return err
		}
		decoded = append(decoded, gr)
		keep[gr.FP] = true
	}
	for _, info := range s.registry.List() {
		if keep[info.Fingerprint] {
			continue
		}
		if err := a.d.store.AppendRemove(info.Fingerprint); err != nil {
			return err
		}
		s.registry.Remove(info.Fingerprint)
		s.purgeDerived(info.Fingerprint)
	}
	for _, gr := range decoded {
		if cur, ok := s.registry.Get(gr.FP); ok && cur.Generation == gr.Gen && currentCFP(cur) == gr.CFP {
			continue // already byte-identical; don't churn the WAL
		}
		if err := a.d.store.AppendState(gr); err != nil {
			return err
		}
		s.installReplicated(gr)
	}
	return nil
}

// currentCFP is the content fingerprint a registry entry implies.
func currentCFP(info GraphInfo) string {
	if info.Generation > 0 {
		return info.ContentFP
	}
	return info.Fingerprint
}

// installReplicated swaps a replicated graph record into the registry,
// purging anything derived from a previous incarnation of the id.
func (s *Server) installReplicated(gr durable.GraphRecord) {
	if cur, ok := s.registry.Get(gr.FP); ok {
		if cur.Generation == gr.Gen && currentCFP(cur) == gr.CFP {
			return
		}
		s.registry.Remove(gr.FP)
		s.purgeDerived(gr.FP)
	}
	if gr.Gen > 0 {
		s.registry.AddAt(gr.FP, gr.Name, gr.Graph, gr.Gen, gr.CFP)
	} else {
		s.registry.Add(Fingerprint(gr.Graph), gr.Name, gr.Graph)
	}
}

// purgeDerived drops every structure derived from fp's graph: maintained
// incremental state and cached results (all generations, block indexes
// included). Replication and deletes both route invalidation
// through here so the two paths can never diverge.
func (s *Server) purgeDerived(fp string) {
	s.incr.drop(fp)
	s.cache.DropGraph(fp)
}

// --- promotion ---------------------------------------------------------------

// PromoteReport summarizes a promotion for the admin response.
type PromoteReport struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Verified int    `json:"verified_graphs"`
	Dropped  int    `json:"dropped_graphs"`
	ReplAddr string `json:"repl_addr,omitempty"`
}

// Promote flips a standby into a primary: stop following, re-check every
// graph's content fingerprint (the PR 4 recovery discipline — replay-to-tip
// already happened because the apply path is synchronous), then start a
// replication listener under a new epoch so old-reign followers resync.
// Idempotent: promoting a primary reports its current state.
func (s *Server) Promote() (*PromoteReport, error) {
	rs := s.repls.Load()
	if rs == nil {
		return nil, fmt.Errorf("service: replication not enabled")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.role.Load() == rolePrimary {
		rep := &PromoteReport{Role: "primary", Epoch: rs.epoch.Load()}
		if p := rs.pri.Load(); p != nil {
			rep.ReplAddr = p.Addr()
		}
		return rep, nil
	}

	var appliedSeq, oldEpoch uint64
	if stb := rs.stb.Swap(nil); stb != nil {
		stb.Stop()
		appliedSeq, oldEpoch = stb.AppliedSeq(), stb.Epoch()
	}

	// Fingerprint re-check of everything the WAL claims is live. A
	// mismatch means a diverged replay — serving it would be worse than
	// dropping it, exactly as at boot recovery.
	var state []durable.GraphRecord
	rs.d.store.View(func(st []durable.GraphRecord) {
		state = append(state, st...)
	})
	rep := &PromoteReport{Role: "primary"}
	for i, gr := range state {
		faults.Inject(nil, sitePromote, 0, i)
		want := gr.FP
		if gr.Gen > 0 {
			want = gr.CFP
		}
		if Fingerprint(gr.Graph) != want {
			_ = rs.d.store.AppendRemove(gr.FP)
			s.registry.Remove(gr.FP)
			s.purgeDerived(gr.FP)
			rep.Dropped++
			rs.promoteDropped.Add(1)
			continue
		}
		rep.Verified++
	}

	epoch := oldEpoch + 1
	if epoch < 2 {
		epoch = 2 // a promoted node is never reign 1
	}
	if rs.cfg.ListenAddr != "" {
		p, err := rs.newPrimary(s, epoch)
		if err != nil {
			// The listener failing (port taken, say) must not block
			// promotion: serving writes matters more than accepting
			// followers. The operator sees the log line.
			if rs.cfg.Logf != nil {
				rs.cfg.Logf("service: promotion: replication listener failed: %v", err)
			}
		} else {
			p.SetSeq(appliedSeq)
			rs.pri.Store(p)
			rep.ReplAddr = p.Addr()
		}
	}
	rs.epoch.Store(epoch)
	rs.role.Store(rolePrimary)
	rs.promotions.Add(1)
	rep.Epoch = epoch
	return rep, nil
}

// handlePromote serves POST /v1/admin/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Promote()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// --- retarget ----------------------------------------------------------------

// Refollow re-points a standby at a new primary's replication listener. The
// router calls this after promoting a peer so the surviving standbys do not
// chase their dead predecessor forever — reconnect backoff alone never
// fixes that, because StandbyConfig.PrimaryAddr is where the backoff keeps
// dialing. The old follow loop is stopped before the new one starts (never
// two appliers at once), and the new loop begins with an empty cursor, so
// its first connection performs a full snapshot resync against the new
// primary — mandatory anyway, since that primary's reign is new.
func (s *Server) Refollow(addr string) error {
	rs := s.repls.Load()
	if rs == nil {
		return fmt.Errorf("service: replication not enabled")
	}
	if addr == "" {
		return fmt.Errorf("service: follow address required")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.role.Load() != roleStandby {
		return fmt.Errorf("service: not a standby (a primary does not follow; promote elsewhere instead)")
	}
	if old := rs.stb.Swap(nil); old != nil {
		old.Stop()
	}
	stb, err := repl.NewStandby(repl.StandbyConfig{
		PrimaryAddr: addr,
		Applier:     &replApplier{s: s, d: rs.d},
		Logf:        rs.cfg.Logf,
	})
	if err != nil {
		return err
	}
	rs.stb.Store(stb)
	rs.refollows.Add(1)
	if rs.cfg.Logf != nil {
		rs.cfg.Logf("service: standby now follows %s", addr)
	}
	return nil
}

// handleFollow serves POST /v1/admin/follow: {"addr": "host:port"}
// re-points a standby at a new primary's replication listener.
func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding follow request: %v", err)
		return
	}
	if err := s.Refollow(req.Addr); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"role": "standby", "following": req.Addr})
}

// --- metrics -----------------------------------------------------------------

// register exposes the replication series. They exist only when
// replication is enabled, so a standalone bccd's /metrics is unchanged.
func (rs *replState) register(s *Server) {
	reg := s.metrics
	reg.GaugeFunc("bicc_repl_role",
		"Replication role: 1 primary, 2 standby.",
		func() float64 { return float64(rs.role.Load()) })
	reg.GaugeFunc("bicc_repl_epoch",
		"Primary reign number the node is serving or following.",
		func() float64 {
			if st := rs.stb.Load(); st != nil && rs.epoch.Load() == 0 {
				return float64(st.Epoch())
			}
			return float64(rs.epoch.Load())
		})
	reg.GaugeFunc("bicc_repl_seq",
		"Last replication sequence assigned (primary).",
		func() float64 {
			if p := rs.pri.Load(); p != nil {
				return float64(p.Seq())
			}
			return 0
		})
	reg.GaugeFunc("bicc_repl_applied_seq",
		"Last replication sequence durably applied (standby).",
		func() float64 {
			if st := rs.stb.Load(); st != nil {
				return float64(st.AppliedSeq())
			}
			return 0
		})
	reg.GaugeFunc("bicc_repl_lag_records",
		"Worst connected follower's distance from the primary's tip, in records.",
		func() float64 {
			if p := rs.pri.Load(); p != nil {
				return float64(p.Lag())
			}
			return 0
		})
	reg.GaugeFunc("bicc_repl_followers",
		"Standbys connected to this primary.",
		func() float64 {
			if p := rs.pri.Load(); p != nil {
				return float64(p.Followers())
			}
			return 0
		})
	reg.CounterVec("bicc_repl_shipped_total",
		"WAL records shipped to followers.").Func(func() int64 {
		if p := rs.pri.Load(); p != nil {
			return p.Shipped()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_acks_total",
		"Follower acks received.").Func(func() int64 {
		if p := rs.pri.Load(); p != nil {
			return p.Acks()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_resyncs_total",
		"Full snapshot resyncs served or performed.").Func(func() int64 {
		n := int64(0)
		if p := rs.pri.Load(); p != nil {
			n += p.Resyncs()
		}
		if st := rs.stb.Load(); st != nil {
			n += st.Resyncs()
		}
		return n
	})
	reg.CounterVec("bicc_repl_ring_corrupt_total",
		"Retention-ring records that failed their checksum on the way to a follower; none shipped, the follower resynced.").Func(func() int64 {
		if p := rs.pri.Load(); p != nil {
			return p.RingCorrupt()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_applied_total",
		"Replicated records durably applied (standby).").Func(func() int64 {
		if st := rs.stb.Load(); st != nil {
			return st.AppliedRecords()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_quorum_timeouts_total",
		"Writes whose standby-ack wait timed out and degraded to async.").Func(rs.quorumDegrades.Load)
	reg.CounterVec("bicc_repl_promotions_total",
		"Standby-to-primary promotions performed.").Func(rs.promotions.Load)
	reg.CounterVec("bicc_repl_refollows_total",
		"Times this standby was re-pointed at a new primary.").Func(rs.refollows.Load)
	reg.GaugeFunc("bicc_repl_connected",
		"1 while this standby's replication stream is up.",
		func() float64 {
			if st := rs.stb.Load(); st != nil && st.Connected() {
				return 1
			}
			return 0
		})
	reg.CounterVec("bicc_repl_gaps_total",
		"Sequence gaps detected in the replication stream (standby).").Func(func() int64 {
		if st := rs.stb.Load(); st != nil {
			return st.Gaps()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_apply_errors_total",
		"Replicated records that failed to apply (standby).").Func(func() int64 {
		if st := rs.stb.Load(); st != nil {
			return st.ApplyErrors()
		}
		return 0
	})
	reg.CounterVec("bicc_repl_promote_dropped_graphs_total",
		"Graphs dropped at promotion because their fingerprint no longer matched.").Func(rs.promoteDropped.Load)
}

// appliedSeq is the replication cursor /healthz reports: a standby's last
// durably applied sequence, or a primary's own tip, which it has applied by
// definition, so the router compares nodes uniformly.
func (rs *replState) appliedSeq() uint64 {
	if st := rs.stb.Load(); st != nil {
		return st.AppliedSeq()
	}
	if p := rs.pri.Load(); p != nil {
		return p.Seq()
	}
	return 0
}
