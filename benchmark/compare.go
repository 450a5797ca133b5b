package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every *.json run record in dir (a single record or an
// array of them) and groups them by workload, in the order the runs
// started.
func loadRecords(dir string) (map[string][]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []record
		if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "[") {
			err = json.Unmarshal(data, &recs)
		} else {
			recs = make([]record, 1)
			err = json.Unmarshal(data, &recs[0])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range recs {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		slices.SortFunc(rs, func(a, b record) int { return strings.Compare(a.Provenance.Started, b.Provenance.Started) })
	}
	return out, nil
}

// runCompare prints, for every (workload, metric) that both directories
// measured, each side's median and quartiles and a verdict of the second
// directory (the change) against the first (the parent).
func runCompare(w io.Writer, specPath, dirA, dirB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	type metric struct {
		name   string
		higher bool
		bound  float64
	}
	var metrics []metric
	for _, m := range spec.EndToEnd {
		metrics = append(metrics, metric{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range spec.PerLayer {
		metrics = append(metrics, metric{m.Name, m.Better == "higher", 0})
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	tally := map[string]int{}
	for _, name := range names {
		for _, m := range metrics {
			va, vb := values(a[name], m.name), values(b[name], m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.bound, m.higher)
			tally[v]++
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", (mb-ma)/math.Abs(ma)*100)
			}
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", name, m.name, describe(va), describe(vb), change, bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nverdicts: worse %d, better %d, unresolved %d, within %d\n",
		tally["worse"], tally["better"], tally["unresolved"], tally["within"])
	return nil
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

// judge compares the runs of a parent (a) with those of a change (b), each
// in run order, on one metric whose regression bound is bound (0: none):
//
//   - better: at least 10 pairs, b wins at least 9 in 10 of them (ties count
//     for neither side), and the medians differ by more than a's
//     interquartile range;
//   - unresolved: a's own spread, its interquartile range over its median,
//     is wider than the bound, and not every run of b beats every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - within: otherwise.
func judge(a, b []float64, bound float64, higher bool) string {
	if bound <= 0 {
		return "-"
	}
	beats := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= 10 && wins*10 >= 9*pairs && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	allBeat := true
	for _, x := range b {
		for _, y := range a {
			allBeat = allBeat && beats(x, y)
		}
	}
	if ma == 0 {
		return "unresolved"
	}
	if (q3-q1)/math.Abs(ma) > bound && !allBeat {
		return "unresolved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "within"
}
