// Package durable is the persistence layer under the bccd query service:
// a checksummed, versioned binary codec for graphs and their mutation
// deltas, and a write-ahead log with periodic compacted snapshots for the
// graph registry. Graphs are the only durable state: a decomposition is a
// deterministic function of its graph, so results are recomputed, never
// persisted.
//
// Every on-disk byte is covered by a CRC-32C frame, and every decoder in
// this package is written to survive arbitrary input: torn tail records
// (a crash mid-append) are detected and truncated on recovery, corrupt
// bodies are dropped and counted, and no length field is trusted beyond
// the bytes actually present. The decoders are fuzz targets
// (FuzzDecodeWAL, FuzzDecodeSnapshot).
//
// Crash points in the write paths are instrumented as durable.* fault
// sites, so a chaos harness can SIGKILL the process at exact byte
// boundaries (internal/faults, KindKill) and prove the recovery contract:
// every acknowledged write survives a restart, every torn write is
// cleanly absent.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bicc"
)

// File layout constants. Every durable file starts with the 4-byte magic,
// one file-kind byte, and one format-version byte; records follow.
const (
	fileHeaderLen = 6
	formatVersion = 1

	fileKindWAL      = 'W'
	fileKindSnapshot = 'S'
	// fileKindResult tagged the retired result-spill files (spill/*.res);
	// it must not be reused for another file kind.
	fileKindResult = 'R'
)

var fileMagic = [4]byte{'B', 'C', 'D', 'U'}

// Record kinds inside WAL and snapshot files.
const (
	recGraphAdd    = 1 // payload: graph record (fingerprint, name, edges)
	recGraphRemove = 2 // payload: fingerprint string
	recSnapEnd     = 4 // payload: u32 count of graph records; snapshot trailer
	recGraphDelta  = 6 // payload: delta record (graph id, generation, edge ops)
	// recResult framed the retired result-spill records; it must not be
	// reused for another record kind. Kind 5 tagged the retired shard-blob
	// files; it stays unused too.
	recResult = 3
)

// frameHeaderLen is the per-record frame: kind byte, payload length, and
// CRC-32C over (kind byte ++ payload).
const frameHeaderLen = 1 + 4 + 4

// maxRecordLen caps a single record payload. Graphs are bounded by the
// service's request-body limit well below this; the cap exists so a corrupt
// length field cannot drive a multi-gigabyte allocation in the decoder.
const maxRecordLen = 1 << 31

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a structurally invalid record body: the frame CRC
// matched (or the file header was readable) but the content is not a valid
// encoding. Distinct from errTorn, which marks a frame cut short.
var ErrCorrupt = errors.New("durable: corrupt record")

// errTorn marks an incomplete tail frame: a crash landed mid-append. The
// scanner reports the last good offset so recovery can truncate.
var errTorn = errors.New("durable: torn record")

// fileHeader renders the 6-byte file header for the given file kind.
func fileHeader(kind byte) []byte {
	h := make([]byte, fileHeaderLen)
	copy(h, fileMagic[:])
	h[4] = kind
	h[5] = formatVersion
	return h
}

// checkFileHeader validates b's first fileHeaderLen bytes against kind.
func checkFileHeader(b []byte, kind byte) error {
	if len(b) < fileHeaderLen {
		return fmt.Errorf("%w: file shorter than header", errTorn)
	}
	if [4]byte(b[:4]) != fileMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if b[4] != kind {
		return fmt.Errorf("%w: file kind %q, want %q", ErrCorrupt, b[4], kind)
	}
	if b[5] != formatVersion {
		return fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, b[5], formatVersion)
	}
	return nil
}

// frameHeader renders the record frame header for payload.
func frameHeader(kind byte, payload []byte) []byte {
	h := make([]byte, frameHeaderLen)
	h[0] = kind
	binary.LittleEndian.PutUint32(h[1:5], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum([]byte{kind}, crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(h[5:9], crc)
	return h
}

// nextRecord parses one framed record from b. It returns the record kind and
// payload, plus how many bytes the frame consumed. A frame cut short returns
// errTorn; a CRC mismatch or oversize length returns ErrCorrupt.
func nextRecord(b []byte) (kind byte, payload []byte, consumed int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, nil // clean end
	}
	if len(b) < frameHeaderLen {
		return 0, nil, 0, errTorn
	}
	kind = b[0]
	n := binary.LittleEndian.Uint32(b[1:5])
	if n > maxRecordLen {
		return 0, nil, 0, fmt.Errorf("%w: record length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-frameHeaderLen) < uint64(n) {
		return 0, nil, 0, errTorn
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(n)]
	crc := crc32.Update(crc32.Checksum(b[:1], crcTable), crcTable, payload)
	if crc != binary.LittleEndian.Uint32(b[5:9]) {
		return 0, nil, 0, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return kind, payload, frameHeaderLen + int(n), nil
}

// --- graph payload ----------------------------------------------------------

// GraphRecord is one persisted registry entry. FP is the graph's stable id
// — its content fingerprint at upload time. A graph that has been mutated
// carries a nonzero Gen and a CFP (the content fingerprint of the CURRENT
// edge list) that no longer equals FP; recovery recomputes the content
// fingerprint and compares it to CFP, so a replay that reconstructed the
// wrong edges is detected and dropped.
type GraphRecord struct {
	FP    string // stable graph id (content fingerprint at upload)
	Name  string // client-supplied label
	Gen   uint64 // mutation generation, 0 for never-mutated graphs
	CFP   string // content fingerprint of the current edges (== FP at gen 0)
	Graph *bicc.Graph
}

// encodeGraph renders a graph record payload. Never-mutated graphs use the
// original version-1 layout so pre-mutation WALs and snapshots stay byte
// identical; mutated graphs use version 2, which carries the generation and
// the current content fingerprint:
//
//	v1: [ver:1][fpLen:u8][fp][nameLen:u16][name][n:u32][m:u32][(u,v) pairs]
//	v2: [ver:2][fpLen:u8][fp][nameLen:u16][name][gen:u64][cfpLen:u8][cfp]
//	    [n:u32][m:u32][(u,v) pairs]
func encodeGraph(rec GraphRecord) []byte {
	fp, name := rec.FP, rec.Name
	if len(fp) > 255 {
		fp = fp[:255]
	}
	if len(name) > 1<<16-1 {
		name = name[:1<<16-1]
	}
	cfp := rec.CFP
	if len(cfp) > 255 {
		cfp = cfp[:255]
	}
	v2 := rec.Gen != 0 || (cfp != "" && cfp != fp)
	edges := rec.Graph.Edges()
	buf := make([]byte, 0, 1+1+len(fp)+2+len(name)+9+len(cfp)+8+8+8*len(edges))
	if v2 {
		buf = append(buf, 2)
	} else {
		buf = append(buf, 1)
	}
	buf = append(buf, byte(len(fp)))
	buf = append(buf, fp...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	if v2 {
		buf = binary.LittleEndian.AppendUint64(buf, rec.Gen)
		buf = append(buf, byte(len(cfp)))
		buf = append(buf, cfp...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Graph.NumVertices()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
	}
	return buf
}

// decodeGraph parses a graph record payload. The graph is rebuilt through
// bicc.NewGraph, so endpoint ranges, self loops, and duplicates are all
// re-validated — a corrupt payload that survives the CRC (or a hostile
// snapshot file) cannot smuggle an invalid graph into the registry.
func decodeGraph(b []byte) (GraphRecord, error) {
	var rec GraphRecord
	r := byteReader{b: b}
	ver, ok := r.u8()
	if !ok || (ver != 1 && ver != 2) {
		return rec, fmt.Errorf("%w: graph payload version", ErrCorrupt)
	}
	fpLen, ok := r.u8()
	if !ok {
		return rec, fmt.Errorf("%w: graph fp length", ErrCorrupt)
	}
	fp, ok := r.bytes(int(fpLen))
	if !ok {
		return rec, fmt.Errorf("%w: graph fp", ErrCorrupt)
	}
	nameLen, ok := r.u16()
	if !ok {
		return rec, fmt.Errorf("%w: graph name length", ErrCorrupt)
	}
	name, ok := r.bytes(int(nameLen))
	if !ok {
		return rec, fmt.Errorf("%w: graph name", ErrCorrupt)
	}
	var gen uint64
	cfp := fp
	if ver == 2 {
		gen, ok = r.u64()
		if !ok {
			return rec, fmt.Errorf("%w: graph generation", ErrCorrupt)
		}
		cfpLen, ok := r.u8()
		if !ok {
			return rec, fmt.Errorf("%w: graph cfp length", ErrCorrupt)
		}
		cfp, ok = r.bytes(int(cfpLen))
		if !ok {
			return rec, fmt.Errorf("%w: graph cfp", ErrCorrupt)
		}
	}
	n, ok1 := r.u32()
	m, ok2 := r.u32()
	if !ok1 || !ok2 {
		return rec, fmt.Errorf("%w: graph sizes", ErrCorrupt)
	}
	if int64(n) > 1<<31-1 || uint64(len(r.b)-r.off) < 8*uint64(m) {
		return rec, fmt.Errorf("%w: graph edge section short for m=%d", ErrCorrupt, m)
	}
	edges := make([]bicc.Edge, m)
	for i := range edges {
		u, _ := r.u32()
		v, _ := r.u32()
		edges[i] = bicc.Edge{U: int32(u), V: int32(v)}
	}
	if r.off != len(r.b) {
		return rec, fmt.Errorf("%w: %d trailing bytes in graph payload", ErrCorrupt, len(r.b)-r.off)
	}
	g, err := bicc.NewGraph(int(n), edges)
	if err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return GraphRecord{FP: string(fp), Name: string(name), Gen: gen, CFP: string(cfp), Graph: g}, nil
}

// --- delta payload ----------------------------------------------------------

// DeltaOp is one edge mutation inside a DeltaRecord.
type DeltaOp struct {
	Del  bool // false = insert, true = delete
	U, V int32
}

// DeltaRecord is one persisted mutation batch: the stable graph id it
// applies to, the generation the graph reaches once the batch is applied,
// the vertex count after application, the content fingerprint of the
// post-application edge list (so recovery can verify the replay), and the
// ops in submission order.
type DeltaRecord struct {
	ID     string // stable graph id (upload-time fingerprint)
	Gen    uint64 // generation AFTER applying this batch
	NewN   int32  // vertex count after applying this batch
	PostFP string // content fingerprint of the post-application edge list
	Ops    []DeltaOp
}

// EncodeDelta renders a delta record payload:
//
//	[ver:1][idLen:u8][id][gen:u64][newN:u32][postLen:u8][postFP]
//	[count:u32][count × (op:u8)(u:u32)(v:u32)]
func EncodeDelta(rec DeltaRecord) []byte {
	id, post := rec.ID, rec.PostFP
	if len(id) > 255 {
		id = id[:255]
	}
	if len(post) > 255 {
		post = post[:255]
	}
	buf := make([]byte, 0, 1+1+len(id)+8+4+1+len(post)+4+9*len(rec.Ops))
	buf = append(buf, 1)
	buf = append(buf, byte(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.NewN))
	buf = append(buf, byte(len(post)))
	buf = append(buf, post...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		k := byte(0)
		if op.Del {
			k = 1
		}
		buf = append(buf, k)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.V))
	}
	return buf
}

// DecodeDelta parses a delta record payload. Structure is fully validated —
// op kinds, non-negative endpoints, no self loops, vertex count bounds —
// so a corrupt payload that slips past the CRC cannot inject an
// unappliable op; whether the ops match the target graph is re-checked at
// replay via PostFP.
func DecodeDelta(b []byte) (DeltaRecord, error) {
	var rec DeltaRecord
	r := byteReader{b: b}
	ver, ok := r.u8()
	if !ok || ver != 1 {
		return rec, fmt.Errorf("%w: delta payload version", ErrCorrupt)
	}
	idLen, ok := r.u8()
	if !ok {
		return rec, fmt.Errorf("%w: delta id length", ErrCorrupt)
	}
	id, ok := r.bytes(int(idLen))
	if !ok {
		return rec, fmt.Errorf("%w: delta id", ErrCorrupt)
	}
	gen, ok := r.u64()
	if !ok {
		return rec, fmt.Errorf("%w: delta generation", ErrCorrupt)
	}
	newN, ok := r.u32()
	if !ok || int64(newN) > 1<<31-1 {
		return rec, fmt.Errorf("%w: delta vertex count", ErrCorrupt)
	}
	postLen, ok := r.u8()
	if !ok {
		return rec, fmt.Errorf("%w: delta post-fp length", ErrCorrupt)
	}
	post, ok := r.bytes(int(postLen))
	if !ok {
		return rec, fmt.Errorf("%w: delta post-fp", ErrCorrupt)
	}
	count, ok := r.u32()
	if !ok || uint64(len(r.b)-r.off) < 9*uint64(count) {
		return rec, fmt.Errorf("%w: delta op section short for count=%d", ErrCorrupt, count)
	}
	ops := make([]DeltaOp, count)
	for i := range ops {
		k, _ := r.u8()
		u, _ := r.u32()
		v, _ := r.u32()
		if k > 1 {
			return rec, fmt.Errorf("%w: delta op kind %d", ErrCorrupt, k)
		}
		if int32(u) < 0 || int32(v) < 0 || u == v || u >= newN || v >= newN {
			return rec, fmt.Errorf("%w: delta op %d endpoints (%d,%d)", ErrCorrupt, i, int32(u), int32(v))
		}
		ops[i] = DeltaOp{Del: k == 1, U: int32(u), V: int32(v)}
	}
	if r.off != len(r.b) {
		return rec, fmt.Errorf("%w: %d trailing bytes in delta payload", ErrCorrupt, len(r.b)-r.off)
	}
	rec.ID = string(id)
	rec.Gen = gen
	rec.NewN = int32(newN)
	rec.PostFP = string(post)
	rec.Ops = ops
	return rec, nil
}

// --- bounds-checked cursor --------------------------------------------------

// byteReader is a bounds-checked cursor over a payload; every read reports
// whether enough bytes remained, so decoders never slice past the input.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) u8() (byte, bool) {
	if r.off+1 > len(r.b) {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

func (r *byteReader) u16() (uint16, bool) {
	if r.off+2 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, true
}

func (r *byteReader) u32() (uint32, bool) {
	if r.off+4 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, true
}

func (r *byteReader) u64() (uint64, bool) {
	if r.off+8 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, true
}

func (r *byteReader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, false
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, true
}
