package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"bicc/internal/core"
	"bicc/internal/engine"
)

func TestPaperInstancesScaling(t *testing.T) {
	full := PaperInstances(1)
	if len(full) != 3 {
		t.Fatalf("%d instances, want 3", len(full))
	}
	if full[0].N != 1_000_000 || full[0].M != 4_000_000 {
		t.Errorf("m=4n instance: n=%d m=%d", full[0].N, full[0].M)
	}
	if full[2].M != 20_000_000 {
		t.Errorf("n log n instance m=%d, want 20M", full[2].M)
	}
	small := PaperInstances(0.001)
	if small[0].N != 1000 || small[0].M != 4000 {
		t.Errorf("scaled instance: n=%d m=%d", small[0].N, small[0].M)
	}
	tiny := PaperInstances(0)
	if tiny[0].N < 16 {
		t.Errorf("scale floor violated: n=%d", tiny[0].N)
	}
}

func TestInstanceBuild(t *testing.T) {
	in := Instance{Name: "t", N: 100, M: 300, Seed: 1}
	g := in.Build()
	if int(g.N) != 100 || len(g.Edges) != 300 {
		t.Errorf("built n=%d m=%d", g.N, len(g.Edges))
	}
}

func TestProcsSweep(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		2:  {1, 2},
		4:  {1, 2, 4},
		12: {1, 2, 4, 8, 12},
		5:  {1, 2, 4, 5},
	}
	for max, want := range cases {
		got := ProcsSweep(max)
		if len(got) != len(want) {
			t.Errorf("ProcsSweep(%d)=%v, want %v", max, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ProcsSweep(%d)=%v, want %v", max, got, want)
				break
			}
		}
	}
	if got := ProcsSweep(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ProcsSweep(0)=%v, want [1]", got)
	}
}

func TestRunAndSpeedup(t *testing.T) {
	in := Instance{Name: "t", N: 200, M: 600, Seed: 2}
	g := in.Build()
	seq, err := Run(in, g, Baseline(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Time <= 0 {
		t.Error("non-positive sequential time")
	}
	for _, a := range engine.Parallel() {
		m, err := Run(in, g, a, 2, 2)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if m.Result.NumComp != seq.Result.NumComp {
			t.Errorf("%s: NumComp=%d, want %d", a.Name, m.Result.NumComp, seq.Result.NumComp)
		}
		if m.Speedup(seq.Time) <= 0 {
			t.Errorf("%s: non-positive speedup", a.Name)
		}
	}
}

func TestFig3Output(t *testing.T) {
	var buf bytes.Buffer
	instances := []Instance{{Name: "tiny", N: 150, M: 600, Seed: 3}}
	ms, err := Fig3(&buf, instances, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sequential + 4 algorithms x 2 procs = 9 measurements.
	if len(ms) != 9 {
		t.Errorf("%d measurements, want 9", len(ms))
	}
	out := buf.String()
	for _, want := range append(engine.Names(), "speedup", "tiny") {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Output(t *testing.T) {
	var buf bytes.Buffer
	instances := []Instance{{Name: "tiny", N: 120, M: 500, Seed: 4}}
	ms, err := Fig4(&buf, instances, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Errorf("%d measurements, want 4", len(ms))
	}
	out := buf.String()
	for _, want := range []string{"spanning-tree", "euler-tour", "low-high", "label-edge",
		"connected-components", "filtering", "skeleton", "tv-filter", "fast-bcc", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, out)
		}
	}
	// TV-filter must actually record filtering time; TV-opt must not. The
	// skeleton step belongs to fast-bcc alone, and fast-bcc never filters
	// or builds an Euler tour.
	for _, m := range ms {
		filt := m.Result.PhaseDuration("filtering")
		skel := m.Result.PhaseDuration("skeleton")
		switch m.Algo {
		case "tv-filter":
			if filt <= 0 {
				t.Error("tv-filter reports no filtering time")
			}
		case "tv-opt", "tv-smp":
			if filt != 0 {
				t.Errorf("%s reports filtering time %v", m.Algo, filt)
			}
		case "fast-bcc":
			if skel <= 0 {
				t.Error("fast-bcc reports no skeleton time")
			}
			if filt != 0 || m.Result.PhaseDuration("euler-tour") != 0 {
				t.Errorf("fast-bcc reports TV-only phases: filtering=%v euler-tour=%v",
					filt, m.Result.PhaseDuration("euler-tour"))
			}
		}
		if m.Algo != "fast-bcc" && skel != 0 {
			t.Errorf("%s reports skeleton time %v", m.Algo, skel)
		}
		// Every repetition solves a fresh graph, so each engine that reads
		// the CSR converts it first; TV-SMP never needs it.
		converted := len(m.Result.Phases) > 0 && m.Result.Phases[0].Name == core.PhaseToCSR
		if converted != (m.Algo != "tv-smp") {
			t.Errorf("%s: phases %v, to-csr first = %v", m.Algo, m.Result.Phases, converted)
		}
	}
}

func TestFig3CSV(t *testing.T) {
	var tab bytes.Buffer
	instances := []Instance{{Name: "t", N: 100, M: 400, Seed: 5}}
	ms, err := Fig3(&tab, instances, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig3CSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ms)+1 {
		t.Fatalf("%d CSV rows, want %d", len(rows), len(ms)+1)
	}
	if rows[0][0] != "instance" || rows[0][6] != "speedup" {
		t.Errorf("header: %v", rows[0])
	}
	// The sequential row must report speedup 1.000.
	found := false
	for _, r := range rows[1:] {
		if r[3] == "sequential" {
			found = true
			if r[6] != "1.000" {
				t.Errorf("sequential speedup=%s", r[6])
			}
		}
	}
	if !found {
		t.Error("no sequential row")
	}
}

func TestFig4CSV(t *testing.T) {
	var tab bytes.Buffer
	instances := []Instance{{Name: "t", N: 100, M: 400, Seed: 6}}
	ms, err := Fig4(&tab, instances, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4CSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ms)+1 {
		t.Fatalf("%d CSV rows, want %d", len(rows), len(ms)+1)
	}
	if len(rows[0]) != 5+10 {
		t.Errorf("header has %d columns, want 15: %v", len(rows[0]), rows[0])
	}
}

func TestFig3CSVMissingBaseline(t *testing.T) {
	ms := []Measurement{{Instance: Instance{Name: "x"}, Algo: "tv-opt", Procs: 2, Time: time.Millisecond}}
	if err := Fig3CSV(&bytes.Buffer{}, ms); err == nil {
		t.Error("missing baseline accepted")
	}
}
