package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"bicc"
	"bicc/internal/incr"
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

// regEntry is the one record of a registered graph: the graph, its
// bookkeeping, and what the mutation endpoint maintains for it. An entry
// belongs to the registry while the map holds it under its fingerprint; a
// removed or evicted entry, its maintained state with it, stays charged
// only while pins hold it.
type regEntry struct {
	info GraphInfo
	g    *bicc.Graph
	// labels are g's canonical per-edge block labels, published with g by
	// the commit that maintained them; nil otherwise. Immutable once
	// published.
	labels  []int32
	refs    int
	lastUse time.Time

	// mu serializes the entry's mutations, engine runs included, and
	// guards st, the decomposition they maintain. It is never taken with
	// the registry lock held.
	mu sync.Mutex
	st *incr.State
}

// infoLocked returns the entry's info with its current pin count.
func (e *regEntry) infoLocked() GraphInfo {
	info := e.info
	info.Refs = e.refs
	return info
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
	// onEvict is told the fingerprint of every entry evicted for space,
	// after the registry lock is released.
	onEvict func(fp string)
}

// NewRegistry returns a registry with the given resident-size budget in
// bytes; maxBytes <= 0 means unlimited. onEvict, when non-nil, is called
// outside the registry lock with the fingerprint of each entry evicted for
// space.
func NewRegistry(maxBytes int64, onEvict func(fp string)) *Registry {
	return &Registry{entries: map[string]*regEntry{}, maxBytes: maxBytes, onEvict: onEvict}
}

// graphBytes is the resident size of a graph (bicc.Graph.ResidentBytes):
// its edge list and slice headers, plus its CSR, charged up front because
// the first solve builds it, or, once a solve has built it, the local view
// that replaces it. Release re-reads it after every query.
func graphBytes(g *bicc.Graph) int64 { return g.ResidentBytes() }

// Add registers g under fp, its content fingerprint, which the caller has
// computed with Fingerprint, and returns the entry's info. Re-adding an
// identical graph only refreshes the entry's recency. Name is a
// client-supplied label kept for listings only.
func (r *Registry) Add(fp, name string, g *bicc.Graph) GraphInfo {
	r.mu.Lock()
	e, ok := r.entries[fp]
	if !ok {
		e = &regEntry{info: GraphInfo{Fingerprint: fp, Name: name}}
		r.entries[fp] = e
		return r.swapLocked(e, g, 0, "", nil)
	}
	e.lastUse = time.Now()
	if name != "" {
		e.info.Name = name
	}
	info := e.infoLocked()
	r.mu.Unlock()
	return info
}

// Put registers g under the stable id fp at generation gen with content
// fingerprint cfp, the state a recovered or replicated graph record names;
// a mutated graph's content no longer hashes to its id. An entry already
// under fp is swapped in place, with no maintained labels: queries pinning
// it keep the graph they hold. Put returns that entry's info from before
// the swap, if there was one.
func (r *Registry) Put(fp, name string, g *bicc.Graph, gen uint64, cfp string) (prev GraphInfo, existed bool) {
	if gen == 0 {
		cfp = "" // an unmutated graph's content fingerprint is its id
	}
	r.mu.Lock()
	e, existed := r.entries[fp]
	if existed {
		prev = e.info
	} else {
		e = &regEntry{info: GraphInfo{Fingerprint: fp}}
		r.entries[fp] = e
	}
	e.info.Name = name
	r.swapLocked(e, g, gen, cfp, nil)
	return prev, existed
}

// swapLocked points e, which the map holds, at g and its labels with the
// given generation and content fingerprint, charges the difference, and
// evicts for space with e exempt. It releases r.mu, then tells onEvict
// about each victim, and returns e's info as of the swap.
func (r *Registry) swapLocked(e *regEntry, g *bicc.Graph, gen uint64, cfp string, labels []int32) GraphInfo {
	r.bytes -= e.info.Bytes
	e.g, e.labels = g, labels
	e.info.Vertices = g.NumVertices()
	e.info.Edges = g.NumEdges()
	e.info.Bytes = graphBytes(g)
	e.info.Generation = gen
	e.info.ContentFP = cfp
	e.lastUse = time.Now()
	r.bytes += e.info.Bytes
	victims := r.evictLocked(e)
	info := e.infoLocked()
	r.mu.Unlock()
	if r.onEvict != nil {
		for _, fp := range victims {
			r.onEvict(fp)
		}
	}
	return info
}

// Pin is one Acquire's hold on a registry entry: the graph, its
// maintained labels and the info the entry had when it was pinned, read in
// one registry transaction, so a concurrent mutation can never pair the
// old graph with the new generation or labels. Release it exactly once.
type Pin struct {
	G *bicc.Graph
	// Labels are G's maintained block labels, nil unless a mutation
	// published them with G.
	Labels []int32
	Info   GraphInfo
	r      *Registry
	e      *regEntry
}

// Acquire pins the graph registered under fp.
func (r *Registry) Acquire(fp string) (*Pin, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok {
		return nil, false
	}
	e.refs++
	e.lastUse = time.Now()
	return &Pin{G: e.g, Labels: e.labels, Info: e.infoLocked(), r: r, e: e}, true
}

// Release unpins the entry and charges what its graph holds now, since
// the query may have built its local view. The last release of an entry
// that has left the registry gives its bytes back.
func (p *Pin) Release() {
	r, e := p.r, p.e
	r.mu.Lock()
	defer r.mu.Unlock()
	e.refs--
	b := graphBytes(e.g)
	r.bytes += b - e.info.Bytes
	e.info.Bytes = b
	if e.refs == 0 && r.entries[e.info.Fingerprint] != e {
		r.bytes -= b
	}
}

// Lock takes the pinned entry's mutation lock and re-reads the pin: a
// mutation that held the lock may have swapped the entry since Acquire.
func (p *Pin) Lock() {
	p.e.mu.Lock()
	p.r.mu.Lock()
	p.G, p.Labels, p.Info = p.e.g, p.e.labels, p.e.infoLocked()
	p.r.mu.Unlock()
}

// Unlock releases the mutation lock Lock took.
func (p *Pin) Unlock() { p.e.mu.Unlock() }

// Registered reports whether the registry still holds the pinned entry
// under its id: false once a delete or an eviction has taken it, even if
// the id names a later upload.
func (p *Pin) Registered() bool {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	return p.r.entries[p.e.info.Fingerprint] == p.e
}

// Replace swaps the pinned entry's graph and labels for the post-mutation
// edge list and the labels maintained for it, advancing the generation
// and current content fingerprint. Queries holding the old pair keep
// computing against it; new acquires see the new one. The entry must be
// registered, which the caller checks under the same Server.writes hold.
func (p *Pin) Replace(g *bicc.Graph, gen uint64, cfp string, labels []int32) {
	p.r.mu.Lock()
	p.r.swapLocked(p.e, g, gen, cfp, labels)
}

// Remove unregisters a graph at once: Get, List and Acquire no longer see
// it, and a later Add registers a fresh entry. An entry still pinned stays
// charged until its last Release.
func (r *Registry) Remove(fp string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[fp]; ok {
		delete(r.entries, fp)
		if e.refs == 0 {
			r.bytes -= e.info.Bytes
		}
	}
}

// Get returns the info for one fingerprint.
func (r *Registry) Get(fp string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok {
		return GraphInfo{}, false
	}
	return e.infoLocked(), true
}

// List returns all entries sorted by fingerprint.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.infoLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// Bytes returns the resident size of all entries, including removed ones
// that pins still hold.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Len returns the number of registered entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Evicted returns how many entries have been evicted for space so far.
func (r *Registry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// evictLocked drops unreferenced entries, least recently used first, until
// the budget is met or only pinned entries remain, returning the victims'
// fingerprints so the caller can notify the evict observer outside the
// lock. keep is exempt — the entry being added must survive its own Add
// even if it alone blows the budget, or uploads would succeed and
// immediately vanish.
func (r *Registry) evictLocked(keep *regEntry) []string {
	if r.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for r.bytes > r.maxBytes {
		var victimFP string
		var victim *regEntry
		for fp, e := range r.entries {
			if e.refs > 0 || e == keep {
				continue
			}
			if victim == nil || e.lastUse.Before(victim.lastUse) {
				victimFP, victim = fp, e
			}
		}
		if victim == nil {
			break
		}
		delete(r.entries, victimFP)
		r.bytes -= victim.info.Bytes
		r.evicted++
		victims = append(victims, victimFP)
	}
	return victims
}
