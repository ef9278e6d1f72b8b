package experiments

import (
	"context"
	"fmt"
	"math/big"

	"bddbddb/internal/analysis"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// SetObs points the suite's analysis runs at a tracer: every Load and
// figure run forwards it (and nothing else) through analysis.Config, so
// a cmd/experiments -trace file shows each benchmark's solves.
func (s *Suite) SetObs(tr obs.Tracer) { s.tr = tr }

// SetControl bounds every suite-run analysis by ctx and budget, so a
// whole figure regeneration can be canceled (Ctrl-C) or capped
// (-timeout, -max-nodes) as one unit.
func (s *Suite) SetControl(ctx context.Context, budget resilience.Budget) {
	s.ctx, s.budget = ctx, budget
}

// cfg is the analysis.Config used by every suite-run analysis.
func (s *Suite) cfg(extraSrc string) analysis.Config {
	return analysis.Config{Tracer: s.tr, ExtraSrc: extraSrc, Context: s.ctx, Budget: s.budget}
}

// The FigureNMetrics functions flatten figure rows into dotted keys,
// "figure4.<bench>.<analysis>.<metric>", which cmd/experiments records
// in the session registry behind its -metrics file.

func bigMetric(k *big.Int) float64 {
	if k == nil {
		return 0
	}
	f, _ := new(big.Float).SetInt(k).Float64()
	return f
}

// Figure3Metrics flattens Figure 3 rows.
func Figure3Metrics(rows []Figure3Row) map[string]float64 {
	m := make(map[string]float64)
	for _, r := range rows {
		p := "figure3." + r.Name + "."
		m[p+"classes"] = float64(r.Classes)
		m[p+"methods"] = float64(r.Methods)
		m[p+"stmts"] = float64(r.Stmts)
		m[p+"vars"] = float64(r.Vars)
		m[p+"allocs"] = float64(r.Allocs)
		m[p+"cs_paths"] = bigMetric(r.Paths)
	}
	return m
}

// Figure4Metrics flattens Figure 4 rows (time, memory, iterations).
func Figure4Metrics(rows []Figure4Row) map[string]float64 {
	m := make(map[string]float64)
	put := func(name, analysis string, meas Measure) {
		p := fmt.Sprintf("figure4.%s.%s.", name, analysis)
		m[p+"time_sec"] = meas.Time.Seconds()
		m[p+"peak_live_nodes"] = float64(meas.Peak)
		m[p+"mb"] = MB(meas.Peak)
		if meas.Iters > 0 {
			m[p+"iterations"] = float64(meas.Iters)
		}
	}
	for _, r := range rows {
		put(r.Name, "ci_nofilter", r.CINoFilter)
		put(r.Name, "ci_filter", r.CIFilter)
		put(r.Name, "discovery", r.Discovery)
		put(r.Name, "cs_pointer", r.CSPointer)
		put(r.Name, "cs_type", r.CSType)
		put(r.Name, "thread", r.ThreadSensitive)
	}
	return m
}

// Figure5Metrics flattens Figure 5 rows.
func Figure5Metrics(rows []Figure5Row) map[string]float64 {
	m := make(map[string]float64)
	for _, r := range rows {
		p := "figure5." + r.Name + "."
		m[p+"captured_sites"] = float64(r.Metrics.CapturedSites)
		m[p+"escaped_sites"] = float64(r.Metrics.EscapedSites)
		m[p+"unneeded_syncs"] = float64(r.Metrics.UnneededSyncs)
		m[p+"needed_syncs"] = float64(r.Metrics.NeededSyncs)
	}
	return m
}

// Figure6Metrics flattens Figure 6 rows.
func Figure6Metrics(rows []Figure6Row) map[string]float64 {
	m := make(map[string]float64)
	put := func(name, variant string, rm analysis.RefinementMetrics) {
		p := fmt.Sprintf("figure6.%s.%s.", name, variant)
		m[p+"multi_pct"] = rm.MultiPct
		m[p+"refine_pct"] = rm.RefinePct
	}
	for _, r := range rows {
		put(r.Name, "ci_nofilter", r.CINoFilter)
		put(r.Name, "ci_filter", r.CIFilter)
		put(r.Name, "proj_cs_pointer", r.ProjectedCSPointer)
		put(r.Name, "proj_cs_type", r.ProjectedCSType)
		put(r.Name, "cs_pointer", r.CSPointer)
		put(r.Name, "cs_type", r.CSType)
	}
	return m
}
