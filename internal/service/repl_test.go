package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/engine"
	"bicc/internal/gen"
	"bicc/internal/graph"
	"bicc/internal/repl"
)

// replica is one durable, replication-enabled server under test.
type replica struct {
	s   *Server
	ts  *httptest.Server
	dir string
}

func newReplica(t *testing.T, cfg Config, dir string, rcfg ReplConfig) *replica {
	t.Helper()
	s := New(cfg)
	if _, err := s.EnableDurability(DurabilityConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.CloseDurability() })
	if rcfg.Logf == nil {
		rcfg.Logf = t.Logf
	}
	if err := s.EnableReplication(rcfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &replica{s: s, ts: ts, dir: dir}
}

// replicaPair wires a fresh primary and a standby following it.
func replicaPair(t *testing.T) (pri, stb *replica) {
	t.Helper()
	pri = newReplica(t, Config{}, t.TempDir(), ReplConfig{ListenAddr: "127.0.0.1:0"})
	stb = newReplica(t, Config{}, t.TempDir(), ReplConfig{
		FollowAddr: pri.s.ReplAddr(),
		ListenAddr: "127.0.0.1:0",
	})
	return pri, stb
}

// waitCaughtUp blocks until the standby has durably applied everything the
// primary has sequenced.
func waitCaughtUp(t *testing.T, pri, stb *replica) {
	t.Helper()
	p := pri.s.repls.Load().pri.Load()
	want := p.Seq()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := stb.s.repls.Load().stb.Load(); st != nil && st.AppliedSeq() >= want {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	st := stb.s.repls.Load().stb.Load()
	t.Fatalf("standby stuck at seq %d, primary at %d", st.AppliedSeq(), want)
}

var replEngines = engine.Names()

// TestReplicationDifferential is the replication correctness harness: three
// graph families (one of them mutated, so a delta record ships) uploaded to
// the primary must be served byte-identically by the standby under every
// engine, while the standby refuses every write with 503 + Retry-After.
func TestReplicationDifferential(t *testing.T) {
	pri, stb := replicaPair(t)

	families := map[string]*bicc.Graph{}
	build := func(n int, edges []bicc.Edge) *bicc.Graph {
		g, err := bicc.NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	elR := gen.RandomConnected(120, 340, 42)
	elT := gen.Torus(8, 10)
	elC := gen.Caterpillar(24, 4)
	families["random"] = build(int(elR.N), elR.Edges)
	families["torus"] = build(int(elT.N), elT.Edges)
	families["caterpillar"] = build(int(elC.N), elC.Edges)
	families["fixed"] = testGraph(t)

	fps := map[string]string{}
	for name, g := range families {
		fps[name] = uploadGraph(t, pri.ts, g, "name="+name).Fingerprint
	}
	// Mutate the fixed family: the batch ships as a delta record, and the
	// standby must replay it to the same generation and content.
	mut := mustMutate(t, pri.ts, fps["fixed"], []mutationDelta{
		{Op: "insert", U: 0, V: 4},
		{Op: "delete", U: 2, V: 0},
	})
	if mut.Generation != 1 {
		t.Fatalf("mutation generation %d, want 1", mut.Generation)
	}
	waitCaughtUp(t, pri, stb)

	for name, fp := range fps {
		pi, ok := getGraphInfo(t, pri.ts, fp)
		if !ok {
			t.Fatalf("%s missing on primary", name)
		}
		si, ok := getGraphInfo(t, stb.ts, fp)
		if !ok {
			t.Fatalf("%s missing on standby", name)
		}
		if si.Generation != pi.Generation || si.ContentFP != pi.ContentFP ||
			si.Vertices != pi.Vertices || si.Edges != pi.Edges {
			t.Fatalf("%s metadata diverged: primary %+v standby %+v", name, pi, si)
		}
		for _, engine := range replEngines {
			want := normalizeBCC(t, queryAll(t, pri.ts, fp, engine))
			got := normalizeBCC(t, queryAll(t, stb.ts, fp, engine))
			if got != want {
				t.Fatalf("%s/%s: standby answer diverged\nprimary: %s\nstandby: %s",
					name, engine, want, got)
			}
		}
	}

	// The standby is read-only: every write class is refused with 503 +
	// Retry-After so a router or client retries against the primary.
	var buf bytes.Buffer
	if err := bicc.WriteGraphBinary(&buf, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(stb.ts.URL+"/v1/graphs?format=binary", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("standby upload: status %d retry-after %q, want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, code, _ := postMutate(t, stb.ts, fps["fixed"], []mutationDelta{{Op: "insert", U: 1, V: 6}}); code != http.StatusServiceUnavailable {
		t.Fatalf("standby mutate: status %d, want 503", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, stb.ts.URL+"/v1/graphs/"+fps["fixed"], nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby delete: status %d, want 503", resp.StatusCode)
	}

	// Roles on both sides.
	if r := pri.s.replRole(); r != rolePrimary {
		t.Fatalf("primary role %d, want %d", r, rolePrimary)
	}
	srs := stb.s.repls.Load()
	st := srs.stb.Load()
	if srs.role.Load() != roleStandby || st == nil || !st.Connected() {
		t.Fatal("standby is not following with its stream up")
	}
	if st.AppliedRecords() == 0 {
		t.Fatal("standby applied no records after replication")
	}
}

// TestReplicationAgreesAfterManyBatches streams 120 seeded local 16-delta
// batches at a primary with a standby, on BlockChain(200, 8): each batch
// deletes and re-inserts one chain edge, deletes, with probability 1/2 per
// delta, the oldest edge an earlier batch inserted, and otherwise inserts
// an absent edge in a 64-id window. The standby, and a server restarted
// from the primary's data directory, must reach the primary's generation
// and content fingerprint and answer sequential byte for byte like it.
func TestReplicationAgreesAfterManyBatches(t *testing.T) {
	const batches = 120
	pri, stb := replicaPair(t)
	el := gen.BlockChain(200, 8)
	g, err := bicc.NewGraph(int(el.N), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	fp := uploadGraph(t, pri.ts, g, "name=chain").Fingerprint

	rng := rand.New(rand.NewSource(32))
	present := map[uint64]bool{}
	for _, e := range el.Edges {
		present[graph.CanonKey(e.U, e.V)] = true
	}
	var own []bicc.Edge
	for b := 0; b < batches; b++ {
		e := el.Edges[rng.Intn(len(el.Edges))] // never deleted for good
		batch := []mutationDelta{{Op: "delete", U: e.U, V: e.V}, {Op: "insert", U: e.V, V: e.U}}
		older := len(own)
		lo := rng.Int31n(el.N - 64)
		for len(batch) < 16 {
			if older > 0 && rng.Intn(2) == 0 {
				e := own[0]
				own = own[1:]
				older--
				delete(present, graph.CanonKey(e.U, e.V))
				batch = append(batch, mutationDelta{Op: "delete", U: e.U, V: e.V})
				continue
			}
			u, v := lo+rng.Int31n(64), lo+rng.Int31n(64)
			if u == v || present[graph.CanonKey(u, v)] {
				continue
			}
			present[graph.CanonKey(u, v)] = true
			own = append(own, bicc.Edge{U: u, V: v})
			batch = append(batch, mutationDelta{Op: "insert", U: u, V: v})
		}
		if out := mustMutate(t, pri.ts, fp, batch); out.Generation != uint64(b+1) {
			t.Fatalf("batch %d: generation %d", b, out.Generation)
		}
	}
	waitCaughtUp(t, pri, stb)

	pinfo, ok := getGraphInfo(t, pri.ts, fp)
	if !ok || pinfo.Generation != batches {
		t.Fatalf("primary after %d batches: %+v ok=%v", batches, pinfo, ok)
	}
	want := normalizeBCC(t, queryAll(t, pri.ts, fp, "sequential"))
	check := func(who string, ts *httptest.Server) {
		t.Helper()
		info, ok := getGraphInfo(t, ts, fp)
		if !ok || info.Generation != pinfo.Generation || info.ContentFP != pinfo.ContentFP {
			t.Fatalf("%s: %+v ok=%v, primary %+v", who, info, ok, pinfo)
		}
		if got := normalizeBCC(t, queryAll(t, ts, fp, "sequential")); got != want {
			t.Fatalf("%s answer diverged\nprimary: %s\n%s: %s", who, want, who, got)
		}
	}
	check("standby", stb.ts)

	pri.ts.Close()
	if err := pri.s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, rep := durableServer(t, Config{}, DurabilityConfig{Dir: pri.dir})
	if rep.Graphs != 1 || rep.DroppedGraphs != 0 || rep.DroppedRecords != 0 {
		t.Fatalf("restart from the primary's directory: %+v", rep)
	}
	check("restarted primary", newHTTPServer(t, s2))
}

// TestReplicationDeletePropagates: a durable delete on the primary removes
// the graph (and everything derived from it) on the standby too.
func TestReplicationDeletePropagates(t *testing.T) {
	pri, stb := replicaPair(t)
	keep := uploadGraph(t, pri.ts, testGraph(t), "name=keep")
	g2, err := bicc.RandomConnectedGraph(30, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	gone := uploadGraph(t, pri.ts, g2, "name=gone")
	waitCaughtUp(t, pri, stb)

	// Warm the standby's cache for the soon-dead graph so the delete has
	// derived state to purge.
	queryAll(t, stb.ts, gone.Fingerprint, "tv-opt")

	req, _ := http.NewRequest(http.MethodDelete, pri.ts.URL+"/v1/graphs/"+gone.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	waitCaughtUp(t, pri, stb)

	if _, ok := getGraphInfo(t, stb.ts, gone.Fingerprint); ok {
		t.Fatal("deleted graph still served by the standby")
	}
	r, data := postBCC(t, stb.ts, bccRequest{Graph: gone.Fingerprint, Algorithm: "tv-opt"})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("query of replicated-deleted graph: status %d: %s", r.StatusCode, data)
	}
	if _, ok := getGraphInfo(t, stb.ts, keep.Fingerprint); !ok {
		t.Fatal("unrelated graph lost with the delete")
	}
}

// TestPromotionServesAckedState: after the primary goes away, promoting the
// standby must yield a node that serves every acked upload and mutation
// byte-identically and accepts writes under a new epoch.
func TestPromotionServesAckedState(t *testing.T) {
	pri, stb := replicaPair(t)
	up := uploadGraph(t, pri.ts, testGraph(t), "name=demo")
	mustMutate(t, pri.ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 4}})
	g2, err := bicc.RandomConnectedGraph(40, 90, 9)
	if err != nil {
		t.Fatal(err)
	}
	up2 := uploadGraph(t, pri.ts, g2, "name=second")

	// Capture what the primary serves while it is alive.
	want := map[string]string{}
	for _, fp := range []string{up.Fingerprint, up2.Fingerprint} {
		for _, engine := range replEngines {
			want[fp+"/"+engine] = normalizeBCC(t, queryAll(t, pri.ts, fp, engine))
		}
	}
	waitCaughtUp(t, pri, stb)

	// The primary dies.
	_ = pri.s.CloseDurability()
	pri.ts.Close()

	resp, err := http.Post(stb.ts.URL+"/v1/admin/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %+v", resp.StatusCode, rep)
	}
	if rep.Role != "primary" || rep.Epoch < 2 || rep.Verified != 2 || rep.Dropped != 0 {
		t.Fatalf("promote report %+v, want primary epoch>=2 verified=2 dropped=0", rep)
	}
	if rep.ReplAddr == "" {
		t.Fatal("promoted node did not start a replication listener")
	}

	// Every acked record is served byte-identically by the promoted node.
	for key, w := range want {
		fp, engine := key[:len(up.Fingerprint)], key[len(up.Fingerprint)+1:]
		if got := normalizeBCC(t, queryAll(t, stb.ts, fp, engine)); got != w {
			t.Fatalf("%s after promotion diverged\nwant %s\ngot  %s", key, w, got)
		}
	}

	// Writes are accepted now: the node is a primary.
	g3, err := bicc.RandomConnectedGraph(20, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, stb.ts, g3, "name=post-promotion")
	mustMutate(t, stb.ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 1, V: 6}})

	// Promotion is idempotent.
	resp, err = http.Post(stb.ts.URL+"/v1/admin/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep2 PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep2.Role != "primary" || rep2.Epoch != rep.Epoch {
		t.Fatalf("second promote: status %d report %+v, want same epoch %d",
			resp.StatusCode, rep2, rep.Epoch)
	}
	if n := stb.s.repls.Load().promotions.Load(); n != 1 {
		t.Fatalf("promotions counter %d, want 1", n)
	}
}

// TestRefollowRetargetsStandby: POST /v1/admin/follow re-points a standby
// at a different primary's replication listener (what the router does to
// survivors after a failover). The standby must snapshot-resync against the
// new primary — old state replaced, new state served byte-identically — and
// a primary must refuse to follow anyone.
func TestRefollowRetargetsStandby(t *testing.T) {
	priA, stb := replicaPair(t)
	upA := uploadGraph(t, priA.ts, testGraph(t), "name=alpha")
	waitCaughtUp(t, priA, stb)

	priB := newReplica(t, Config{}, t.TempDir(), ReplConfig{ListenAddr: "127.0.0.1:0"})
	gB, err := bicc.RandomConnectedGraph(30, 70, 7)
	if err != nil {
		t.Fatal(err)
	}
	upB := uploadGraph(t, priB.ts, gB, "name=beta")
	wantB := normalizeBCC(t, queryAll(t, priB.ts, upB.Fingerprint, "tv-opt"))

	follow := func(ts *httptest.Server, addr string) int {
		body, _ := json.Marshal(map[string]string{"addr": addr})
		resp, err := http.Post(ts.URL+"/v1/admin/follow", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := follow(priA.ts, priB.s.ReplAddr()); code != http.StatusConflict {
		t.Fatalf("primary accepted a follow request: status %d, want 409", code)
	}
	if code := follow(stb.ts, priB.s.ReplAddr()); code != http.StatusOK {
		t.Fatalf("standby refollow: status %d, want 200", code)
	}
	waitCaughtUp(t, priB, stb)

	// The resync replaced the old reign's state wholesale.
	if _, ok := getGraphInfo(t, stb.ts, upA.Fingerprint); ok {
		t.Fatal("old primary's graph survived the retarget resync")
	}
	if got := normalizeBCC(t, queryAll(t, stb.ts, upB.Fingerprint, "tv-opt")); got != wantB {
		t.Fatalf("retargeted standby answer diverged\nwant %s\ngot  %s", wantB, got)
	}

	// Still a read-only standby, now counted as refollowed.
	var buf bytes.Buffer
	if err := bicc.WriteGraphBinary(&buf, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(stb.ts.URL+"/v1/graphs?format=binary", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retargeted standby accepted a write: status %d", resp.StatusCode)
	}
	if rs := stb.s.repls.Load(); rs.role.Load() != roleStandby || rs.refollows.Load() != 1 {
		t.Fatalf("after refollow: role %d, %d refollows; want standby and 1", rs.role.Load(), rs.refollows.Load())
	}
}

// TestFollowRefusesOversizeBody checks that POST /v1/admin/follow reads at
// most maxAdminBody bytes: a request whose address would be valid but whose
// body runs past the cap is refused with 400 and re-points nothing.
func TestFollowRefusesOversizeBody(t *testing.T) {
	pri, stb := replicaPair(t)
	body, _ := json.Marshal(map[string]string{
		"addr": pri.s.ReplAddr(),
		"pad":  strings.Repeat("x", maxAdminBody),
	})
	resp, err := http.Post(stb.ts.URL+"/v1/admin/follow", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("follow with a %d-byte body: status %d, want 400", len(body), resp.StatusCode)
	}
	if n := stb.s.repls.Load().refollows.Load(); n != 0 {
		t.Fatalf("an oversize follow request re-pointed the standby: %d refollows", n)
	}
}

// TestStandbyWALIsRecoveryImage: the standby's own data dir must be a valid
// PR 4 recovery image at all times — a plain (non-replicated) server opened
// over it recovers exactly the replicated state. Doubles as the boot-replay
// accounting check: the RecoveryReport counts the replayed WAL records.
func TestStandbyWALIsRecoveryImage(t *testing.T) {
	pri, stb := replicaPair(t)
	up := uploadGraph(t, pri.ts, testGraph(t), "name=demo")
	mustMutate(t, pri.ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 4}})
	want := normalizeBCC(t, queryAll(t, pri.ts, up.Fingerprint, "tv-opt"))
	pinfo, _ := getGraphInfo(t, pri.ts, up.Fingerprint)
	waitCaughtUp(t, pri, stb)

	dir := stb.dir
	stb.ts.Close()
	if err := stb.s.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	var logged int
	s2, rep := durableServer(t, Config{}, DurabilityConfig{
		Dir:            dir,
		ReplayLogEvery: 1,
		Logf:           func(format string, args ...any) { logged++ },
	})
	if rep.Graphs != 1 {
		t.Fatalf("recovered %d graphs from standby WAL, want 1", rep.Graphs)
	}
	if rep.WALRecords == 0 {
		t.Fatal("recovery report missing WAL record count")
	}
	if logged == 0 {
		t.Fatal("boot replay logged no progress lines with ReplayLogEvery=1")
	}
	ts2 := newHTTPServer(t, s2)
	info, ok := getGraphInfo(t, ts2, up.Fingerprint)
	if !ok {
		t.Fatal("replicated graph absent after reopening the standby dir")
	}
	if info.Generation != pinfo.Generation || info.ContentFP != pinfo.ContentFP {
		t.Fatalf("recovered %+v, primary had %+v", info, pinfo)
	}
	if got := normalizeBCC(t, queryAll(t, ts2, up.Fingerprint, "tv-opt")); got != want {
		t.Fatalf("recovered standby answer diverged\nwant %s\ngot  %s", want, got)
	}
}

// TestPrimaryAloneDegradesQuorum: a primary with no connected standby still
// acknowledges writes (replication degrades to async, never blocks the
// write path).
func TestPrimaryAloneDegradesQuorum(t *testing.T) {
	pri := newReplica(t, Config{}, t.TempDir(), ReplConfig{
		ListenAddr: "127.0.0.1:0",
		AckTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	up := uploadGraph(t, pri.ts, testGraph(t), "name=solo")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lonely-primary upload took %v: quorum wait did not degrade", elapsed)
	}
	mustMutate(t, pri.ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 4}})
	rs := pri.s.repls.Load()
	if rs.role.Load() != rolePrimary || rs.pri.Load().Seq() == 0 {
		t.Fatalf("lonely primary: role %d, seq %d", rs.role.Load(), rs.pri.Load().Seq())
	}
}

// TestReplicationMetricsReplaceStatsz checks the surface that replaced
// /statsz: the route is gone, the four replication-integrity series exist
// only while replication is on, and /healthz reports the applied_seq that
// the router compares, equal to the node's own replication series.
func TestReplicationMetricsReplaceStatsz(t *testing.T) {
	replSeries := []string{"bicc_repl_connected", "bicc_repl_gaps_total",
		"bicc_repl_apply_errors_total", "bicc_repl_promote_dropped_graphs_total"}
	_, diskless := newTestServer(t, Config{})
	resp, err := http.Get(diskless.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/statsz answered %d, want 404", resp.StatusCode)
	}
	m := scrapeHTTP(t, diskless)
	for _, name := range replSeries {
		if strings.Contains(m, name) {
			t.Errorf("diskless /metrics has %s", name)
		}
	}
	if _, hz := getHealthz(t, diskless); hz["applied_seq"] != nil {
		t.Errorf("diskless /healthz has applied_seq: %v", hz)
	}

	pri, stb := replicaPair(t)
	up := uploadGraph(t, pri.ts, testGraph(t), "")
	mustMutate(t, pri.ts, up.Fingerprint, []mutationDelta{{Op: "insert", U: 0, V: 4}})
	waitCaughtUp(t, pri, stb)
	for _, tc := range []struct {
		node   *replica
		series string
	}{{pri, "bicc_repl_seq"}, {stb, "bicc_repl_applied_seq"}} {
		want, ok := seriesValue(scrapeHTTP(t, tc.node.ts), tc.series)
		if _, hz := getHealthz(t, tc.node.ts); !ok || want == 0 || hz["applied_seq"] != want {
			t.Errorf("/healthz applied_seq %v, %s %v", hz["applied_seq"], tc.series, want)
		}
	}
	m = scrapeHTTP(t, stb.ts)
	for _, name := range replSeries {
		want := 0.0
		if name == "bicc_repl_connected" {
			want = 1
		}
		if got, ok := seriesValue(m, name); !ok || got != want {
			t.Errorf("following standby: %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// A standby reports the reign it follows.
	if got, _ := seriesValue(m, "bicc_repl_epoch"); got != 1 {
		t.Errorf("following standby: bicc_repl_epoch = %v, want 1", got)
	}

	_ = pri.s.CloseDurability()
	if rep, err := stb.s.Promote(); err != nil || rep.Dropped != 0 {
		t.Fatalf("promote: %+v, %v", rep, err)
	}
	m = scrapeHTTP(t, stb.ts)
	for name, want := range map[string]float64{
		"bicc_repl_promote_dropped_graphs_total": 0,
		"bicc_repl_connected":                    0,
	} {
		if got, ok := seriesValue(m, name); !ok || got != want {
			t.Errorf("promoted node: %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestReplicationRefusesForgedGraphRecords: a graph record whose edges do
// not hash to its id, shipped as a graph-add or inside a resync baseline,
// fails to apply, so the standby resyncs. Neither the record's id nor the
// content's own fingerprint is registered, and the standby's store does
// not hold the record.
func TestReplicationRefusesForgedGraphRecords(t *testing.T) {
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	a := &replApplier{s: s, d: s.dur.Load()}
	g := testGraph(t)
	const id = "00000000deadbeef"
	payload := durable.EncodeGraphRecord(durable.GraphRecord{FP: id, CFP: id, Name: "forged", Graph: g})
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: applied a record whose edges do not hash to its id", what)
		}
		for _, fp := range []string{id, Fingerprint(g)} {
			if _, ok := s.registry.Get(fp); ok {
				t.Errorf("%s: %s is registered", what, fp)
			}
		}
		a.d.store.View(func(state []durable.GraphRecord) {
			if len(state) != 0 {
				t.Errorf("%s: the standby's store holds %d records, want none", what, len(state))
			}
		})
	}
	check("graph-add", a.Apply(durable.RecGraphAdd, payload))
	check("resync", a.Reset([]repl.StateRecord{{Kind: durable.RecGraphAdd, Payload: payload}}))
}

// TestDeleteRacesMutation races DELETE /v1/graphs/{fp} against an in-flight
// mutation on the same fingerprint, repeatedly. Whatever the interleaving,
// the graph must end up fully absent, and re-uploading the same content must
// start clean at generation 0 with correct answers — no stale cache entry,
// per-block index, or incremental state resurrected from the raced
// generation.
func TestDeleteRacesMutation(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, Config{CacheEntries: 64}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)

	base := testGraph(t)
	up := uploadGraph(t, ts, base, "name=target")
	fp := up.Fingerprint
	baseline := map[string]string{}
	for _, engine := range replEngines {
		baseline[engine] = normalizeBCC(t, queryAll(t, ts, fp, engine))
	}
	deleteGraph := func() int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+fp, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	deleteGraph() // start each round from an empty registry

	for round := 0; round < 20; round++ {
		uploadGraph(t, ts, base, "name=target")
		// Advance to generation 1 and warm generation-keyed derived state:
		// cache entries, maintained incremental labels.
		mustMutate(t, ts, fp, []mutationDelta{{Op: "insert", U: 0, V: 4}})
		queryAll(t, ts, fp, "tv-opt")

		var wg sync.WaitGroup
		wg.Add(2)
		var delStatus int
		go func() {
			defer wg.Done()
			// Raw request: any of 200 (mutation won), 404/503 (delete won)
			// is a legal outcome; only the end state below is asserted.
			body, _ := json.Marshal(mutateRequest{Deltas: []mutationDelta{{Op: "insert", U: 1, V: 6}}})
			resp, err := http.Post(ts.URL+"/v1/graphs/"+fp+"/edges", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			delStatus = deleteGraph()
		}()
		wg.Wait()
		if delStatus != http.StatusNoContent {
			t.Fatalf("round %d: delete status %d, want 204", round, delStatus)
		}
		if _, ok := getGraphInfo(t, ts, fp); ok {
			t.Fatalf("round %d: graph resurrected after delete", round)
		}
		if r, data := postBCC(t, ts, bccRequest{Graph: fp, Algorithm: "tv-opt"}); r.StatusCode != http.StatusNotFound {
			t.Fatalf("round %d: query after delete: status %d: %s", round, r.StatusCode, data)
		}

		// Re-upload the same content: a fresh incarnation at generation 0.
		// Any resurrected entry keyed under the raced incarnation's
		// generations would poison these answers.
		re := uploadGraph(t, ts, base, "name=target")
		if re.Fingerprint != fp {
			t.Fatalf("round %d: re-upload fingerprint %s, want %s", round, re.Fingerprint, fp)
		}
		if re.Generation != 0 || re.Existed {
			t.Fatalf("round %d: re-upload gen %d existed %v, want a clean gen-0 entry",
				round, re.Generation, re.Existed)
		}
		for _, engine := range replEngines {
			if got := normalizeBCC(t, queryAll(t, ts, fp, engine)); got != baseline[engine] {
				t.Fatalf("round %d: %s answer poisoned after delete race\nwant %s\ngot  %s",
					round, engine, baseline[engine], got)
			}
		}
		deleteGraph()
	}
}

// registrySet lists what a registry holds by id, generation and content
// fingerprint: what a restart from the data dir must bring back.
func registrySet(s *Server) []string {
	var out []string
	for _, info := range s.registry.List() {
		out = append(out, fmt.Sprintf("%s gen %d cfp %q", info.Fingerprint, info.Generation, info.ContentFP))
	}
	return out
}

// TestDeleteRacesMutationReupload holds a mutation in its seed run while
// its graph is deleted and the same content uploaded again. The mutation
// must lose to the delete: it answers 404 and writes nothing, so a restart
// recovers exactly the live registry, the re-upload at generation 0.
func TestDeleteRacesMutationReupload(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	compute := func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return bicc.BiconnectedComponentsCtx(ctx, g, opt)
	}
	dir := t.TempDir()
	s, _ := durableServer(t, Config{Compute: compute}, DurabilityConfig{Dir: dir})
	ts := newHTTPServer(t, s)
	g := testGraph(t)
	fp := uploadGraph(t, ts, g, "name=target").Fingerprint

	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(mutateRequest{Deltas: []mutationDelta{{Op: "insert", U: 1, V: 6}}})
		resp, err := http.Post(ts.URL+"/v1/graphs/"+fp+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+fp, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete during the mutation's seed run: status %d, want 204", resp.StatusCode)
	}
	if re := uploadGraph(t, ts, g, "name=target"); re.Existed || re.Generation != 0 {
		t.Fatalf("re-upload: existed %v, generation %d, want a fresh entry at 0", re.Existed, re.Generation)
	}
	close(release)
	if code := <-status; code != http.StatusNotFound {
		t.Fatalf("mutation of the deleted incarnation answered %d, want 404", code)
	}

	live := registrySet(s)
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s2, _ := durableServer(t, Config{}, DurabilityConfig{Dir: dir})
	if got := registrySet(s2); !reflect.DeepEqual(got, live) {
		t.Fatalf("restart recovered %v, the live registry held %v", got, live)
	}
}
