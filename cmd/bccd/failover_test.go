// Node-kill chaos harness: the PR 4 crash tests proved a single bccd
// survives its own death; these prove the *deployment* does. A real primary
// and a real warm standby run as separate processes over separate data
// directories, the primary is SIGKILLed at injected replication fault sites
// (repl.ship: record durable locally but never shipped; repl.ack: record
// durable on the standby but the ack unrecorded), and the assertions are
// the availability contract: every WAL-acked upload and mutation is served
// byte-identical by the promoted standby, un-acked tail records are
// consistently absent (or, past the ack site, consistently present — the
// at-least-once boundary), and hedged reads through the router answer
// correctly while the primary is down. A third case SIGKILLs the standby
// mid-promotion (repl.promote) and shows the next promotion over the same
// data directory recovers everything — promotion is PR 4 recovery plus a
// role flip, so dying inside it loses nothing.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bicc"
	"bicc/internal/repl"
	"bicc/internal/service"
)

// replAddr digs the replication listener's address out of the daemon's
// startup log ("primary: replicating WAL on HOST:PORT"), which is printed
// before the HTTP listen line startBccd already waits for.
func (p *bccdProc) replAddr() string {
	p.t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.lines {
		if i := strings.Index(line, "replicating WAL on "); i >= 0 {
			return strings.TrimSpace(line[i+len("replicating WAL on "):])
		}
	}
	p.t.Fatalf("no replication listener line in stderr:\n%s", strings.Join(p.lines, "\n"))
	return ""
}

// waitApplied polls the standby's /healthz until its replication cursor
// reaches want.
func (p *bccdProc) waitApplied(want float64) {
	p.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		_, hz := healthz(p.t, p)
		if seq, _ := hz["applied_seq"].(float64); seq >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.t.Fatalf("standby never applied seq %v; stderr:\n%s", want, p.stderr())
}

// mutate posts one insert delta and returns an error when the daemon died
// mid-request.
func (p *bccdProc) mutate(fp string, u, v int32) error {
	body := fmt.Sprintf(`{"deltas":[{"op":"insert","u":%d,"v":%d}]}`, u, v)
	resp, err := http.Post(p.url("/v1/graphs/"+fp+"/edges"), "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return nil
}

// queryNorm asks base for the full view set of fp under algo and returns
// the response with per-request fields (timings, cache/serving markers)
// stripped, so answers from different nodes compare byte-for-byte
// (json.Marshal of a map emits sorted keys).
func queryNorm(t *testing.T, base, fp, algo string) (string, error) {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%q,"algorithm":%q,"include":["components","articulation","bridges","blockcut"]}`, fp, algo)
	resp, err := http.Post(base+"/v1/bcc", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return "", err
	}
	for _, k := range []string{"elapsed_ns", "phases", "cached", "incr", "graph", "trace"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	return string(out), err
}

var failoverEngines = []string{"sequential", "tv-opt"}

// startReplPair launches a primary (with faults injected via priFaults) and
// a warm standby following it, each over its own data directory.
func startReplPair(t *testing.T, dirP, dirS, priFaults, stbFaults string) (pri, stb *bccdProc) {
	t.Helper()
	pri = startBccd(t, dirP, priFaults, "-repl-listen", "127.0.0.1:0")
	stb = startBccd(t, dirS, stbFaults, "-repl-follow", pri.replAddr())
	return pri, stb
}

// TestNodeKillFailover SIGKILLs the whole primary process at each
// replication fault site mid-batch and asserts the promoted standby's view
// of the world: acked state byte-identical, un-acked tail handled per the
// site's at-least-once position, reads hedged correctly while the primary
// is down, writes restored by router-driven promotion.
func TestNodeKillFailover(t *testing.T) {
	cases := []struct {
		site string
		// tailSurvives: the in-flight (never client-acked) record at the kill
		// site. At repl.ship the primary dies before the record leaves the
		// box, so the standby must not have it. At repl.ack the standby has
		// already fsync'd it — the ack was read but unrecorded — so the
		// promoted node serves it: at-least-once, never lost-after-ack.
		tailSurvives bool
	}{
		{"repl.ship", false},
		{"repl.ack", true},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			// Records 1..3 are the acked batch (two uploads + one mutation);
			// the kill rule arms record 4, an upload that must never be
			// acknowledged.
			pri, stb := startReplPair(t, t.TempDir(), t.TempDir(),
				fmt.Sprintf("kill,site=%s,iter=4", tc.site), "")

			g1, fp1 := crashGraph(t, 1)
			g2, fp2 := crashGraph(t, 2)
			for i, g := range []*bicc.Graph{g1, g2} {
				if _, err := pri.upload(g); err != nil {
					t.Fatalf("upload %d: %v", i, err)
				}
			}
			if err := pri.mutate(fp1, 0, 50); err != nil {
				t.Fatalf("mutation: %v", err)
			}
			stb.waitApplied(3)

			// What the primary serves pre-kill is the byte-level contract the
			// promoted standby must honor.
			want := map[string]string{}
			for _, fp := range []string{fp1, fp2} {
				for _, algo := range failoverEngines {
					ans, err := queryNorm(t, "http://"+pri.addr, fp, algo)
					if err != nil {
						t.Fatalf("pre-kill query %s/%s: %v", fp, algo, err)
					}
					want[fp+"/"+algo] = ans
				}
			}

			// Record 4: the fault site kills the primary before the client is
			// acknowledged.
			g4, fp4 := crashGraph(t, 4)
			if _, err := pri.upload(g4); err == nil {
				t.Fatal("upload 4 was acknowledged despite the kill site")
			}
			if st := pri.waitExit(); st.Success() {
				t.Fatalf("primary exited cleanly, want SIGKILL: %s", pri.stderr())
			}
			if !strings.Contains(pri.stderr(), "faults: injected kill at "+tc.site) {
				t.Fatalf("kill did not fire at %s; stderr:\n%s", tc.site, pri.stderr())
			}

			// The router fronts the dead primary and the surviving standby.
			rt, err := repl.NewRouter(repl.RouterConfig{
				Primary:       "http://" + pri.addr,
				Standbys:      []string{"http://" + stb.addr},
				ProbeInterval: 50 * time.Millisecond,
				Logf:          t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			front := httptest.NewServer(rt)
			defer front.Close()

			// Hedged reads answer correctly while the primary is down and no
			// promotion has happened: the first attempt fails against the
			// corpse, the hedge lands on the warm standby.
			for _, algo := range failoverEngines {
				got, err := queryNorm(t, front.URL, fp2, algo)
				if err != nil {
					t.Fatalf("hedged read with dead primary: %v", err)
				}
				if got != want[fp2+"/"+algo] {
					t.Fatalf("hedged read diverged\nwant %s\ngot  %s", want[fp2+"/"+algo], got)
				}
			}
			if rt.Failovers() != 0 {
				t.Fatalf("failovers %d after reads, want 0: reads must not promote", rt.Failovers())
			}

			// The first write through the router finds the primary dead,
			// promotes the standby (replay-to-tip already happened; the
			// fingerprint re-check runs inside /v1/admin/promote), and retries
			// the idempotent upload transparently.
			var buf bytes.Buffer
			if err := bicc.WriteGraphBinary(&buf, g2); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(front.URL+"/v1/graphs?format=binary", "application/octet-stream", &buf)
			if err != nil {
				t.Fatalf("failover write: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("failover write: status %d", resp.StatusCode)
			}
			if rt.Failovers() != 1 || rt.Primary() != "http://"+stb.addr {
				t.Fatalf("failovers %d primary %q, want 1 and the promoted standby", rt.Failovers(), rt.Primary())
			}

			// Every acked upload and mutation is served byte-identical by the
			// promoted node.
			for key, w := range want {
				fp, algo, _ := strings.Cut(key, "/")
				got, err := queryNorm(t, "http://"+stb.addr, fp, algo)
				if err != nil {
					t.Fatalf("promoted query %s: %v", key, err)
				}
				if got != w {
					t.Fatalf("%s after failover diverged\nwant %s\ngot  %s", key, w, got)
				}
			}

			// The un-acked tail record, per the kill site's position relative
			// to the standby's fsync.
			graphs, err := stb.graphs()
			if err != nil {
				t.Fatal(err)
			}
			if _, present := graphs[fp4]; present != tc.tailSurvives {
				t.Fatalf("un-acked record present=%v at %s, want %v", present, tc.site, tc.tailSurvives)
			}
			if tc.tailSurvives {
				// Present means fully intact: content-addressing re-derives the
				// fingerprint from the replicated bytes.
				if g := graphs[fp4]; g.Vertices != g4.NumVertices() || g.Edges != g4.NumEdges() {
					t.Fatalf("surviving tail record %+v, want %dx%d", g, g4.NumVertices(), g4.NumEdges())
				}
				if _, err := queryNorm(t, "http://"+stb.addr, fp4, "tv-opt"); err != nil {
					t.Fatalf("querying surviving tail record: %v", err)
				}
			}

			// The promoted node is a primary now: role reported, writes
			// accepted, new mutations flow.
			if _, hz := healthz(t, stb); hz["role"] != "primary" {
				t.Fatalf("promoted role %v, want primary", hz["role"])
			}
			if err := stb.mutate(fp2, 1, 40); err != nil {
				t.Fatalf("mutation after promotion: %v", err)
			}
		})
	}
}

// TestNodeKillDuringPromotion SIGKILLs the standby inside its own promotion
// (the repl.promote fingerprint re-check) and asserts the data directory it
// leaves behind promotes cleanly on the next attempt: nothing acked is
// lost, because promotion mutates nothing until a fingerprint mismatch —
// it IS boot recovery with a role flip at the end.
func TestNodeKillDuringPromotion(t *testing.T) {
	dirS := t.TempDir()
	pri, stb := startReplPair(t, t.TempDir(), dirS, "", "kill,site=repl.promote,iter=1")
	replAddr := pri.replAddr()

	g1, fp1 := crashGraph(t, 1)
	g2, fp2 := crashGraph(t, 2)
	for _, g := range []*bicc.Graph{g1, g2} {
		if _, err := pri.upload(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := pri.mutate(fp1, 0, 50); err != nil {
		t.Fatal(err)
	}
	stb.waitApplied(3)
	want := map[string]string{}
	for _, fp := range []string{fp1, fp2} {
		for _, algo := range failoverEngines {
			ans, err := queryNorm(t, "http://"+pri.addr, fp, algo)
			if err != nil {
				t.Fatal(err)
			}
			want[fp+"/"+algo] = ans
		}
	}

	// Whole-node death of the primary, no clean shutdown.
	if err := pri.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	pri.waitExit()

	// First promotion attempt dies at the second registry entry of the
	// fingerprint re-check.
	_, err := http.Post("http://"+stb.addr+"/v1/admin/promote", "", nil)
	if err == nil {
		t.Fatal("promote was answered despite the kill site")
	}
	if st := stb.waitExit(); st.Success() {
		t.Fatalf("standby exited cleanly, want SIGKILL: %s", stb.stderr())
	}
	if !strings.Contains(stb.stderr(), "faults: injected kill at repl.promote") {
		t.Fatalf("kill did not fire at repl.promote; stderr:\n%s", stb.stderr())
	}

	// Restart over the same directory (still a standby chasing the dead
	// primary's address) and promote again: PR 4 recovery makes the retry
	// indistinguishable from a first promotion.
	stb2 := startBccd(t, dirS, "", "-repl-follow", replAddr)
	resp, err := http.Post("http://"+stb2.addr+"/v1/admin/promote", "", nil)
	if err != nil {
		t.Fatalf("second promote: %v", err)
	}
	var rep service.PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Role != "primary" || rep.Verified != 2 || rep.Dropped != 0 {
		t.Fatalf("second promote: status %d report %+v, want primary verified=2 dropped=0", resp.StatusCode, rep)
	}

	for key, w := range want {
		fp, algo, _ := strings.Cut(key, "/")
		got, err := queryNorm(t, "http://"+stb2.addr, fp, algo)
		if err != nil {
			t.Fatalf("query %s after recovered promotion: %v", key, err)
		}
		if got != w {
			t.Fatalf("%s after recovered promotion diverged\nwant %s\ngot  %s", key, w, got)
		}
	}
	// Writable under the new reign.
	g3, _ := crashGraph(t, 3)
	if _, err := stb2.upload(g3); err != nil {
		t.Fatalf("upload after recovered promotion: %v", err)
	}
}
