// Kill-and-restart chaos harness: runs bccd as a subprocess, SIGKILLs it
// at fault-injected points inside the durable write paths (via BICC_FAULTS
// with the kill kind), restarts over the same data directory, and asserts
// the durability contract: every acknowledged write is recovered with its
// content fingerprint intact, and a record torn mid-write is cleanly
// truncated away.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/service"
)

// TestMain lets this test binary double as the bccd executable: the
// harness re-execs itself with BCCD_CHILD=1 and daemon flags, so the
// subprocess under test is always the code being tested — no stale
// installed binary, no build step.
func TestMain(m *testing.M) {
	if os.Getenv("BCCD_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bccdProc is one bccd subprocess plus its captured stderr.
type bccdProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	lines []string
	// scanned is closed once stderr has been read to its end.
	scanned chan struct{}
}

// startBccd launches the daemon on a kernel-chosen port over dir (none
// when dir is empty), with an optional BICC_FAULTS spec, and waits for the
// listen line.
func startBccd(t *testing.T, dir, faults string, extra ...string) *bccdProc {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2"}
	if dir != "" {
		args = append(args, "-data-dir", dir)
	}
	args = append(args, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BCCD_CHILD=1", "BICC_FAULTS="+faults)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &bccdProc{t: t, cmd: cmd, scanned: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("bccd did not report a listen address; stderr:\n%s", p.stderr())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return p
}

func (p *bccdProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// waitExit blocks until the subprocess exits, failing the test on timeout.
// It reads stderr to its end first: Wait closes the pipe, and a last line
// still unread, such as a kill site's, would be lost.
func (p *bccdProc) waitExit() *os.ProcessState {
	p.t.Helper()
	done := make(chan error, 1)
	go func() {
		<-p.scanned
		done <- p.cmd.Wait()
	}()
	select {
	case <-done:
		return p.cmd.ProcessState
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		p.t.Fatalf("bccd did not exit; stderr:\n%s", p.stderr())
		return nil
	}
}

func (p *bccdProc) url(path string) string { return "http://" + p.addr + path }

// upload posts g in binary format and returns the fingerprint, or an error
// when the daemon died mid-request (the expected outcome at a kill site).
func (p *bccdProc) upload(g *bicc.Graph) (string, error) {
	var buf bytes.Buffer
	if err := bicc.WriteGraphBinary(&buf, g); err != nil {
		return "", err
	}
	resp, err := http.Post(p.url("/v1/graphs?format=binary"), "application/octet-stream", &buf)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	return out.Fingerprint, nil
}

// graphs fetches the resident graph listing keyed by fingerprint.
func (p *bccdProc) graphs() (map[string]struct{ Vertices, Edges int }, error) {
	resp, err := http.Get(p.url("/v1/graphs"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Graphs []struct {
			Fingerprint string `json:"fingerprint"`
			Vertices    int    `json:"vertices"`
			Edges       int    `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	m := map[string]struct{ Vertices, Edges int }{}
	for _, g := range out.Graphs {
		m[g.Fingerprint] = struct{ Vertices, Edges int }{g.Vertices, g.Edges}
	}
	return m, nil
}

// truncations reads the torn tails repaired at boot from the daemon's
// recovery log line ("recovered N graphs from DIR in D (truncations T, ..."),
// printed before the listen line startBccd waits for.
func (p *bccdProc) truncations() int {
	p.t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.lines {
		if _, rest, ok := strings.Cut(line, "(truncations "); ok {
			var n int
			if _, err := fmt.Sscanf(rest, "%d,", &n); err != nil {
				p.t.Fatalf("recovery line %q: %v", line, err)
			}
			return n
		}
	}
	p.t.Fatalf("no recovery line in stderr:\n%s", strings.Join(p.lines, "\n"))
	return 0
}

// query posts one BCC request on the chosen engine; the error is returned
// so kill-site tests can tolerate the daemon dying mid-query.
func (p *bccdProc) query(fp, algo string) error {
	body := fmt.Sprintf(`{"graph": %q, "algorithm": %q}`, fp, algo)
	resp, err := http.Post(p.url("/v1/bcc"), "application/json", strings.NewReader(body))
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

// crashGraph builds the i-th deterministic test graph; the parent computes
// the expected fingerprint with the same code the daemon uses.
func crashGraph(t *testing.T, i int) (*bicc.Graph, string) {
	t.Helper()
	g, err := bicc.RandomConnectedGraph(60, 140, int64(1000+i))
	if err != nil {
		t.Fatal(err)
	}
	return g, service.Fingerprint(g)
}

// TestCrashAtWALSites SIGKILLs the daemon at each WAL fault site during
// the fourth upload and asserts: the three acknowledged graphs always come
// back fingerprint-identical; the torn-record site (killed between frame
// header and payload) additionally loses the unacknowledged upload and is
// repaired by truncation, while the post-payload sites leave a complete
// record behind (at-least-once, never lost-after-ack).
func TestCrashAtWALSites(t *testing.T) {
	cases := []struct {
		site     string
		wantTorn bool // unacked upload absent + WAL truncated at recovery
	}{
		{"durable.wal.header", true},
		{"durable.wal.payload", false},
		{"durable.wal.sync", false},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			dir := t.TempDir()
			p := startBccd(t, dir, fmt.Sprintf("kill,site=%s,iter=3", tc.site))

			acked := map[string]struct{ Vertices, Edges int }{}
			for i := 0; i < 3; i++ {
				g, wantFP := crashGraph(t, i)
				fp, err := p.upload(g)
				if err != nil {
					t.Fatalf("upload %d: %v", i, err)
				}
				if fp != wantFP {
					t.Fatalf("upload %d: fp %s, want %s", i, fp, wantFP)
				}
				acked[fp] = struct{ Vertices, Edges int }{g.NumVertices(), g.NumEdges()}
			}
			g3, fp3 := crashGraph(t, 3)
			if _, err := p.upload(g3); err == nil {
				t.Fatal("upload 3 was acknowledged despite the kill site")
			}
			st := p.waitExit()
			if st.Success() {
				t.Fatalf("child exited cleanly, want SIGKILL: %s", p.stderr())
			}
			if !strings.Contains(p.stderr(), "faults: injected kill at "+tc.site) {
				t.Fatalf("kill did not fire at %s; stderr:\n%s", tc.site, p.stderr())
			}

			// Restart over the same directory, no faults.
			p2 := startBccd(t, dir, "")
			got, err := p2.graphs()
			if err != nil {
				t.Fatal(err)
			}
			for fp, want := range acked {
				g, ok := got[fp]
				if !ok {
					t.Fatalf("acknowledged graph %s lost after crash", fp)
				}
				if g != want {
					t.Fatalf("graph %s recovered as %+v, want %+v", fp, g, want)
				}
			}
			_, unackedPresent := got[fp3]
			if tc.wantTorn {
				if unackedPresent {
					t.Fatal("torn (unacknowledged) upload resurrected")
				}
				if n := p2.truncations(); n < 1 {
					t.Fatalf("torn tail not truncated: %d truncations", n)
				}
			} else {
				// Killed after the record bytes reached the kernel: SIGKILL
				// does not empty the page cache, so the complete record
				// survives and recovery needs no repair.
				if !unackedPresent {
					t.Fatal("complete record lost despite surviving the kill")
				}
				if n := p2.truncations(); n != 0 {
					t.Fatalf("unexpected truncation: %d truncations", n)
				}
			}
			if n := metric(t, p2, "bicc_recovered_graphs"); int(n) != len(got) {
				t.Fatalf("bicc_recovered_graphs %v != listed %d", n, len(got))
			}
		})
	}
}

// TestCrashDuringCompaction kills the daemon inside snapshot compaction —
// once mid-snapshot-write, once just before the atomic rename — and
// asserts every acknowledged upload survives and the daemon stays
// writable after recovery.
func TestCrashDuringCompaction(t *testing.T) {
	cases := []struct{ site, spec string }{
		// iter at the write site is the record index inside the snapshot;
		// at the rename site it is the new generation (2 on the first
		// compaction).
		{"durable.snap.write", "kill,site=durable.snap.write,iter=0"},
		{"durable.snap.rename", "kill,site=durable.snap.rename,iter=2"},
	}
	compactBytes := compactOnThirdUpload(t)
	for _, tc := range cases {
		site := tc.site
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			p := startBccd(t, dir, tc.spec, "-compact-bytes", compactBytes)

			acked := map[string]bool{}
			for i := 0; i < 40; i++ {
				g, _ := crashGraph(t, i)
				fp, err := p.upload(g)
				if err != nil {
					break // the background compaction killed the process
				}
				acked[fp] = true
			}
			st := p.waitExit()
			if st.Success() {
				t.Fatalf("child exited cleanly, want SIGKILL during compaction: %s", p.stderr())
			}
			if !strings.Contains(p.stderr(), "faults: injected kill at "+site) {
				t.Fatalf("kill did not fire at %s; stderr:\n%s", site, p.stderr())
			}
			if len(acked) < 2 {
				t.Fatalf("only %d uploads acknowledged before the kill", len(acked))
			}

			p2 := startBccd(t, dir, "")
			got, err := p2.graphs()
			if err != nil {
				t.Fatal(err)
			}
			for fp := range acked {
				if _, ok := got[fp]; !ok {
					t.Fatalf("acknowledged graph %s lost in compaction crash", fp)
				}
			}
			// Still writable: the active WAL generation is intact.
			g, _ := crashGraph(t, 99)
			if _, err := p2.upload(g); err != nil {
				t.Fatalf("upload after compaction recovery: %v", err)
			}
		})
	}
}

// compactOnThirdUpload returns a -compact-bytes value that the WAL reaches
// on the third crashGraph upload and not before, so the first two uploads
// are acknowledged before the compaction they do not trigger can kill the
// daemon. It writes the same records bccd does to a throwaway store and
// takes the midpoint between the two- and three-upload WAL sizes.
func compactOnThirdUpload(t *testing.T) string {
	t.Helper()
	st, _, err := durable.Open(durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var size [3]int64
	for i := range size {
		g, fp := crashGraph(t, i)
		if err := st.AppendAdd(durable.GraphRecord{FP: fp, Graph: g}); err != nil {
			t.Fatal(err)
		}
		size[i] = st.WALBytes()
	}
	return strconv.FormatInt((size[1]+size[2])/2, 10)
}

// TestCrashAtEngineKillSite SIGKILLs the daemon inside the fast-bcc engine
// (at the pipeline's first checkpoint, after the spanning tree) while it
// serves a query. An engine kill must cost only the in-flight query: every
// acknowledged upload recovers from the WAL, and the restarted daemon
// answers the same fast-bcc query cleanly.
func TestCrashAtEngineKillSite(t *testing.T) {
	const site = "core.pipeline"
	dir := t.TempDir()
	p := startBccd(t, dir, "kill,site="+site+",iter=1")
	acked := map[string]struct{ Vertices, Edges int }{}
	for i := 0; i < 2; i++ {
		g, _ := crashGraph(t, i)
		fp, err := p.upload(g)
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		acked[fp] = struct{ Vertices, Edges int }{g.NumVertices(), g.NumEdges()}
	}
	_, fp0 := crashGraph(t, 0)
	if err := p.query(fp0, "fast-bcc"); err == nil {
		t.Fatal("fast-bcc query succeeded despite the engine kill site")
	}
	st := p.waitExit()
	if st.Success() {
		t.Fatalf("child exited cleanly, want SIGKILL inside the engine: %s", p.stderr())
	}
	if !strings.Contains(p.stderr(), "faults: injected kill at "+site) {
		t.Fatalf("kill did not fire at %s; stderr:\n%s", site, p.stderr())
	}

	p2 := startBccd(t, dir, "")
	got, err := p2.graphs()
	if err != nil {
		t.Fatal(err)
	}
	for fp, want := range acked {
		g, ok := got[fp]
		if !ok {
			t.Fatalf("acknowledged graph %s lost after engine kill", fp)
		}
		if g != want {
			t.Fatalf("graph %s recovered as %+v, want %+v", fp, g, want)
		}
	}
	if err := p2.query(fp0, "fast-bcc"); err != nil {
		t.Fatalf("fast-bcc query after recovery: %v", err)
	}
}

// TestSIGTERMCleanStop is the drain test's durable leg: a graceful stop
// flushes and closes the WAL, so the next boot recovers everything with
// zero truncations and no repair.
func TestSIGTERMCleanStop(t *testing.T) {
	dir := t.TempDir()
	p := startBccd(t, dir, "")
	acked := map[string]bool{}
	for i := 0; i < 3; i++ {
		g, _ := crashGraph(t, i)
		fp, err := p.upload(g)
		if err != nil {
			t.Fatal(err)
		}
		acked[fp] = true
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	st := p.waitExit()
	if !st.Success() {
		t.Fatalf("SIGTERM exit code %d; stderr:\n%s", st.ExitCode(), p.stderr())
	}

	p2 := startBccd(t, dir, "")
	got, err := p2.graphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("recovered %d graphs, want %d", len(got), len(acked))
	}
	for fp := range acked {
		if _, ok := got[fp]; !ok {
			t.Fatalf("graph %s lost across clean stop", fp)
		}
	}
	if n := p2.truncations(); n != 0 {
		t.Fatalf("clean stop required recovery repair: %d truncations", n)
	}
	if n := metric(t, p2, "bicc_recovered_graphs"); n != 3 {
		t.Fatalf("bicc_recovered_graphs = %v, want 3", n)
	}
}
