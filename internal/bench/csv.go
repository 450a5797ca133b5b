package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"bicc/internal/core"
	"bicc/internal/engine"
)

// Fig3CSV writes Fig. 3 measurements as CSV (one row per measurement, with
// speedup computed against the sequential run of the same instance) for
// plotting with external tools.
func Fig3CSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"instance", "n", "m", "algorithm", "procs", "seconds", "speedup"}); err != nil {
		return err
	}
	// Sequential baselines per instance name.
	base := map[string]Measurement{}
	for _, m := range ms {
		if m.Algo == engine.Sequential {
			base[m.Instance.Name] = m
		}
	}
	for _, m := range ms {
		b, ok := base[m.Instance.Name]
		if !ok {
			return fmt.Errorf("bench: no sequential baseline for instance %q", m.Instance.Name)
		}
		rec := []string{
			m.Instance.Name,
			strconv.Itoa(m.Instance.N),
			strconv.Itoa(m.Instance.M),
			m.Algo,
			strconv.Itoa(m.Procs),
			strconv.FormatFloat(m.Time.Seconds(), 'g', 6, 64),
			strconv.FormatFloat(m.Speedup(b.Time), 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fig4CSV writes the per-step breakdown as CSV: one row per (instance,
// algorithm) with a column per phase.
func Fig4CSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	header := []string{"instance", "n", "m", "algorithm", "procs"}
	header = append(header, core.PhaseOrder...)
	header = append(header, "total")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range ms {
		if m.Result == nil || len(m.Result.Phases) == 0 {
			return fmt.Errorf("bench: measurement for %s lacks a phase breakdown", m.Algo)
		}
		rec := []string{
			m.Instance.Name,
			strconv.Itoa(m.Instance.N),
			strconv.Itoa(m.Instance.M),
			m.Algo,
			strconv.Itoa(m.Procs),
		}
		for _, ph := range core.PhaseOrder {
			rec = append(rec, strconv.FormatFloat(m.Result.PhaseDuration(ph).Seconds(), 'g', 6, 64))
		}
		rec = append(rec, strconv.FormatFloat(m.Result.Total().Seconds(), 'g', 6, 64))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
