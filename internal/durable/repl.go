package durable

import "sort"

// Replication-facing surface of the store. A primary bccd taps the WAL at
// the exact point records become durable (SetAppendObserver fires after the
// fsync that lets the service acknowledge the client), ships the raw frame
// payloads to standbys, and uses View to capture a consistent baseline for
// snapshot resync. A standby replays shipped payloads through the same
// decoders recovery uses, applies delta records with ReplayDelta as
// recovery does, then re-appends them to its OWN WAL via AppendAdd /
// AppendRemove / AppendDelta — so a standby's disk state is always a valid
// recovery image and promotion is just recovery plus a role flip.

// Exported record kinds, as they appear on the replication stream. These are
// the WAL's own kind bytes: the wire format IS the WAL format.
const (
	RecGraphAdd    byte = recGraphAdd
	RecGraphRemove byte = recGraphRemove
	RecGraphDelta  byte = recGraphDelta
)

// EncodeGraphRecord renders a graph record exactly as the WAL stores it
// (v1/v2 layout chosen by generation), for snapshot-resync streams.
func EncodeGraphRecord(rec GraphRecord) []byte { return encodeGraph(rec) }

// DecodeGraphRecord parses a graph record payload, adopting and
// re-validating its edge list like recovery does.
func DecodeGraphRecord(b []byte) (GraphRecord, error) { return decodeGraph(b) }

// SetAppendObserver installs fn to be called with every record's (kind,
// payload) immediately after the record is durable (post-fsync under
// SyncAlways) and before the appending call returns. fn runs under the
// store's mutex: invocations are totally ordered and match the WAL's record
// order exactly, and no append can interleave with a View callback. fn must
// not call back into the store and must not block.
func (s *Store) SetAppendObserver(fn func(kind byte, payload []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendObs = fn
}

// View calls fn with a sorted copy of the live durable state while holding
// the store's mutex, so the caller can pair the state with a replication
// sequence number knowing no append lands in between. fn must not call back
// into the store.
func (s *Store) View(fn func(state []GraphRecord)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := make([]GraphRecord, 0, len(s.state))
	for _, gr := range s.state {
		state = append(state, gr)
	}
	sort.Slice(state, func(i, j int) bool { return state[i].FP < state[j].FP })
	fn(state)
}
