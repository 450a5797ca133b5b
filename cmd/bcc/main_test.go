package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bicc"
)

// buildTool compiles one of the repository's commands into dir and returns
// the binary path.
func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bcc := buildTool(t, dir, "./cmd/bcc")
	bccgen := buildTool(t, dir, "./cmd/bccgen")

	// Generate a mesh in each format and decompose it with each algorithm.
	for _, format := range []string{"text", "dimacs", "binary"} {
		gen := exec.Command(bccgen, "-family", "mesh", "-rows", "6", "-cols", "7", "-format", format)
		graphBytes, err := gen.Output()
		if err != nil {
			t.Fatalf("bccgen %s: %v", format, err)
		}
		for _, a := range append([]bicc.Algorithm{bicc.Auto}, bicc.Algorithms()...) {
			algo := a.String()
			run := exec.Command(bcc, "-format", format, "-algo", algo, "-timing", "-stats")
			run.Stdin = bytes.NewReader(graphBytes)
			out, err := run.Output()
			if err != nil {
				t.Fatalf("bcc -format %s -algo %s: %v", format, algo, err)
			}
			s := string(out)
			if !strings.Contains(s, "graph: 42 vertices, 71 edges") {
				t.Errorf("%s/%s: unexpected header in:\n%s", format, algo, s)
			}
			if !strings.Contains(s, "biconnected components: 1") {
				t.Errorf("%s/%s: mesh should be one block:\n%s", format, algo, s)
			}
			if !strings.Contains(s, "articulation points: 0") {
				t.Errorf("%s/%s: mesh has no cut vertices:\n%s", format, algo, s)
			}
			// The read builds the CSR, so -timing shows it and no engine
			// step converts.
			if !strings.Contains(s, "\nread ") || strings.Contains(s, "to-csr") {
				t.Errorf("%s/%s: -timing wants a read line and no to-csr:\n%s", format, algo, s)
			}
		}
	}

	// A chain via a file argument, with -components.
	chain := exec.Command(bccgen, "-family", "chain", "-n", "5")
	chainBytes, err := chain.Output()
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "chain.txt")
	if err := writeFile(file, chainBytes); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bcc, "-components", file).Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "biconnected components: 4") {
		t.Errorf("chain output:\n%s", out)
	}
	if c := strings.Count(string(out), "block "); c != 4 {
		t.Errorf("printed %d blocks, want 4:\n%s", c, out)
	}

	// Malformed input must fail loudly.
	bad := exec.Command(bcc)
	bad.Stdin = strings.NewReader("not a graph\n")
	if err := bad.Run(); err == nil {
		t.Error("bcc accepted malformed input")
	}
	// Unknown algorithm must fail.
	if err := exec.Command(bcc, "-algo", "bogus", file).Run(); err == nil {
		t.Error("bcc accepted unknown algorithm")
	}
	// Unknown generator family must fail.
	if err := exec.Command(bccgen, "-family", "bogus").Run(); err == nil {
		t.Error("bccgen accepted unknown family")
	}
}

func TestCLIVerifyAndBench(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	verify := buildTool(t, dir, "./cmd/bccverify")
	out, err := exec.Command(verify, "-trials", "15", "-maxn", "60").Output()
	if err != nil {
		t.Fatalf("bccverify: %v", err)
	}
	if !strings.Contains(string(out), "OK: 15 trials") {
		t.Errorf("bccverify output:\n%s", out)
	}

	benchBin := buildTool(t, dir, "./cmd/bccbench")
	csvPath := filepath.Join(dir, "fig3.csv")
	out, err = exec.Command(benchBin, "-scale", "0.002", "-maxprocs", "2", "-reps", "1", "-csv", csvPath).Output()
	if err != nil {
		t.Fatalf("bccbench: %v", err)
	}
	for _, want := range []string{"tv-filter", "speedup"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("bccbench output missing %q", want)
		}
	}
	csvBytes, err := readFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvBytes), "instance,n,m,algorithm,procs,seconds,speedup") {
		t.Errorf("csv header: %s", bytes.SplitN(csvBytes, []byte("\n"), 2)[0])
	}

	csvPath = filepath.Join(dir, "fig4.csv")
	out, err = exec.Command(benchBin, "-fig", "4", "-scale", "0.002", "-maxprocs", "2", "-reps", "1", "-csv", csvPath).Output()
	if err != nil {
		t.Fatalf("bccbench -fig 4: %v", err)
	}
	for _, want := range []string{"spanning-tree", "filtering", "total"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("bccbench -fig 4 output missing %q", want)
		}
	}
	if csvBytes, err = readFile(csvPath); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvBytes), "instance,n,m,algorithm,procs,to-csr,relabel,spanning-tree,") {
		t.Errorf("fig 4 csv header: %s", bytes.SplitN(csvBytes, []byte("\n"), 2)[0])
	}
}

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func readFile(path string) ([]byte, error)     { return os.ReadFile(path) }
