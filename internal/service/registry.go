package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"bicc"
)

// Fingerprint returns the content fingerprint of a graph: a 64-bit FNV-1a
// hash over the vertex count and the edge list in order, rendered as 16 hex
// digits. Identical uploads always map to the same registry entry, so
// clients can address graphs by content instead of by upload id. The values
// are graph ids in the WAL, snapshots and replication, so they must never
// change (TestFingerprintGolden).
func Fingerprint(g *bicc.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.NumVertices()))
	h.Write(buf[:])
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// GraphInfo is the public description of a registered graph.
//
// Fingerprint is the graph's stable id: the content fingerprint at upload
// time. Mutations (POST /v1/graphs/{fp}/edges) keep the id but advance
// Generation and ContentFP — the fingerprint of the current edge list.
// Both are omitted from JSON while the graph is unmutated (generation 0),
// so listings of never-mutated graphs are byte-identical to older builds.
type GraphInfo struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name,omitempty"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Bytes       int64  `json:"bytes"`
	Refs        int    `json:"refs"`
	Generation  uint64 `json:"generation,omitempty"`
	ContentFP   string `json:"content_fingerprint,omitempty"`
}

// regEntry is one registered graph plus its bookkeeping.
type regEntry struct {
	info    GraphInfo
	g       *bicc.Graph
	refs    int
	lastUse time.Time
	dead    bool // removed while referenced; drop on last release
}

// Registry is a concurrent, content-addressed store of loaded graphs.
// Entries are reference-counted: queries Acquire a graph for the duration of
// a computation, which pins it against eviction. When the resident size
// exceeds maxBytes, unreferenced entries are evicted least-recently-used
// first; referenced entries are never evicted, so the registry can
// transiently exceed its budget under load rather than break running
// queries.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*regEntry
	maxBytes int64
	bytes    int64
	evicted  int64
	// onEvict, when set, is told the fingerprint of every entry evicted
	// for space, after the registry lock is released. The durability layer
	// uses it to append a WAL remove, keeping the on-disk state in step
	// with the resident set.
	onEvict func(fp string)
}

// SetEvictObserver installs (or, with nil, removes) the space-eviction
// callback. The callback runs outside the registry lock.
func (r *Registry) SetEvictObserver(fn func(fp string)) {
	r.mu.Lock()
	r.onEvict = fn
	r.mu.Unlock()
}

// NewRegistry returns a registry with the given resident-size budget in
// bytes; maxBytes <= 0 means unlimited.
func NewRegistry(maxBytes int64) *Registry {
	return &Registry{entries: map[string]*regEntry{}, maxBytes: maxBytes}
}

// graphBytes estimates the resident size of a graph: 8 bytes per edge plus
// slice headers; CSR conversions made during queries are transient and not
// charged.
func graphBytes(g *bicc.Graph) int64 {
	return int64(g.NumEdges())*8 + 64
}

// Add registers g under fp, its content fingerprint, which the caller has
// computed with Fingerprint. Re-adding an identical graph is an idempotent
// no-op that refreshes the entry's recency (existed=true). Name is a
// client-supplied label kept for listings only.
func (r *Registry) Add(fp, name string, g *bicc.Graph) (existed bool) {
	r.mu.Lock()
	if e, ok := r.entries[fp]; ok && !e.dead {
		e.lastUse = time.Now()
		if name != "" {
			e.info.Name = name
		}
		r.mu.Unlock()
		return true
	}
	e := &regEntry{
		info: GraphInfo{
			Fingerprint: fp,
			Name:        name,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			Bytes:       graphBytes(g),
		},
		g:       g,
		lastUse: time.Now(),
	}
	r.entries[fp] = e
	r.bytes += e.info.Bytes
	victims := r.evictLocked(e)
	cb := r.onEvict
	r.mu.Unlock()
	if cb != nil {
		for _, v := range victims {
			cb(v)
		}
	}
	return false
}

// Acquire pins the graph with the given fingerprint and returns it. The
// caller must Release exactly once when done.
func (r *Registry) Acquire(fp string) (*bicc.Graph, bool) {
	g, _, ok := r.AcquireInfo(fp)
	return g, ok
}

// AcquireInfo pins the graph and returns it together with its info in one
// registry transaction. Queries that key caches by generation must use this
// instead of Acquire+Get, or a concurrent mutation could hand them the old
// graph pointer paired with the new generation.
func (r *Registry) AcquireInfo(fp string) (*bicc.Graph, GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok || e.dead {
		return nil, GraphInfo{}, false
	}
	e.refs++
	e.lastUse = time.Now()
	info := e.info
	info.Refs = e.refs
	return e.g, info, true
}

// Replace swaps the graph stored under an existing stable id for its
// post-mutation edge list, advancing the generation and current content
// fingerprint. Queries holding the old pointer via Acquire keep computing
// against the snapshot they pinned; new acquires see the new graph. It
// reports whether the id was present (and live).
func (r *Registry) Replace(fp string, g *bicc.Graph, gen uint64, cfp string) bool {
	r.mu.Lock()
	e, ok := r.entries[fp]
	if !ok || e.dead {
		r.mu.Unlock()
		return false
	}
	r.bytes -= e.info.Bytes
	e.g = g
	e.info.Vertices = g.NumVertices()
	e.info.Edges = g.NumEdges()
	e.info.Bytes = graphBytes(g)
	e.info.Generation = gen
	e.info.ContentFP = cfp
	r.bytes += e.info.Bytes
	e.lastUse = time.Now()
	victims := r.evictLocked(e)
	cb := r.onEvict
	r.mu.Unlock()
	if cb != nil {
		for _, v := range victims {
			cb(v)
		}
	}
	return true
}

// AddAt registers g under an explicit stable id at a given generation — the
// durable-recovery path, where a mutated graph's content no longer hashes to
// its id. Unlike Add it never merges with an existing entry; recovery runs
// before the server takes traffic.
func (r *Registry) AddAt(fp, name string, g *bicc.Graph, gen uint64, cfp string) {
	r.mu.Lock()
	e := &regEntry{
		info: GraphInfo{
			Fingerprint: fp,
			Name:        name,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			Bytes:       graphBytes(g),
			Generation:  gen,
			ContentFP:   cfp,
		},
		g:       g,
		lastUse: time.Now(),
	}
	if old, ok := r.entries[fp]; ok {
		r.bytes -= old.info.Bytes
	}
	r.entries[fp] = e
	r.bytes += e.info.Bytes
	victims := r.evictLocked(e)
	cb := r.onEvict
	r.mu.Unlock()
	if cb != nil {
		for _, v := range victims {
			cb(v)
		}
	}
}

// Release unpins a graph previously Acquired. Releasing the last reference
// to a removed entry deletes it.
func (r *Registry) Release(fp string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok {
		return
	}
	if e.refs > 0 {
		e.refs--
	}
	if e.dead && e.refs == 0 {
		r.deleteLocked(fp, e)
	}
}

// Remove unregisters a graph. If queries still hold references, the entry is
// hidden immediately (no new Acquires) and reclaimed when the last reference
// is released. It reports whether the fingerprint was present.
func (r *Registry) Remove(fp string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok || e.dead {
		return false
	}
	if e.refs > 0 {
		e.dead = true
		return true
	}
	r.deleteLocked(fp, e)
	return true
}

// Get returns the info for one fingerprint.
func (r *Registry) Get(fp string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok || e.dead {
		return GraphInfo{}, false
	}
	info := e.info
	info.Refs = e.refs
	return info, true
}

// List returns all live entries sorted by fingerprint.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		if e.dead {
			continue
		}
		info := e.info
		info.Refs = e.refs
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// Bytes returns the resident size of all entries (including dead ones not
// yet reclaimed).
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Len returns the number of live entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if !e.dead {
			n++
		}
	}
	return n
}

// Evicted returns how many entries have been evicted for space so far.
func (r *Registry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

func (r *Registry) deleteLocked(fp string, e *regEntry) {
	delete(r.entries, fp)
	r.bytes -= e.info.Bytes
}

// evictLocked drops unreferenced entries, least recently used first, until
// the budget is met or only pinned entries remain, returning the victims'
// fingerprints so the caller can notify the evict observer outside the
// lock. keep, when non-nil, is exempt — the entry being added must survive
// its own Add even if it alone blows the budget, or uploads would succeed
// and immediately vanish.
func (r *Registry) evictLocked(keep *regEntry) []string {
	if r.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for r.bytes > r.maxBytes {
		var victimFP string
		var victim *regEntry
		for fp, e := range r.entries {
			if e.refs > 0 || e.dead || e == keep {
				continue
			}
			if victim == nil || e.lastUse.Before(victim.lastUse) {
				victimFP, victim = fp, e
			}
		}
		if victim == nil {
			break
		}
		r.deleteLocked(victimFP, victim)
		r.evicted++
		victims = append(victims, victimFP)
	}
	return victims
}
