package main

import (
	"fmt"
	"math/big"
	"strconv"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
	"bddbddb/internal/program"
	"bddbddb/internal/synth"
)

// synthNames are the internal/synth Figure-3 stand-ins the synth-fig4
// workload solves. No single Figure-4 cell dominates: the largest
// (jboss and sshdaemon Algorithm 5, about 0.5 s each) is about a tenth
// of a pass. pmd is left out because its Algorithm 5 cell alone would
// be most of the pass.
var synthNames = []string{"freetts", "nfcchat", "jetty", "openwfe", "joone", "jboss", "sshdaemon"}

// generateSynth builds every synthNames program: the workload's set-up.
func generateSynth(names []string) ([]*program.Program, error) {
	progs := make([]*program.Program, len(names))
	for i, name := range names {
		b := synth.BenchmarkByName(name)
		if b == nil {
			return nil, fmt.Errorf("unknown synth benchmark %q", name)
		}
		progs[i] = synth.Generate(b.Params)
	}
	return progs, nil
}

// synthPass solves the six Figure-4 cells (Algorithms 1, 2, 3, 5, 6
// and 7) of every program and checks each cell's output relation
// cardinalities. It returns the extracted facts and discovered graphs
// for the after-run checks.
func synthPass(names []string, progs []*program.Program, c *checker, tr *spanSums) (passResult, []*extract.Facts, error) {
	sp := spans{}
	sc := newSolveCounters()
	facts := make([]*extract.Facts, len(progs))
	settle()
	resetPeakRSS()
	start, cpu0 := time.Now(), cpuTime()
	ok := true
	var clonedPrep time.Duration // Algorithm 5 time outside its solve
	paths := new(big.Int)
	for i, prog := range progs {
		name := names[i]
		var f *extract.Facts
		if err := sp.time("extract", func() (err error) {
			f, err = extract.Extract(prog, extract.Options{})
			return err
		}); err != nil {
			return passResult{}, nil, fmt.Errorf("%s extract: %w", name, err)
		}
		facts[i] = f
		// cell runs one Figure-4 cell under its span and checks every
		// output relation's exact cardinality.
		cell := func(span, label string, run func(analysis.Config) (*analysis.Result, error)) error {
			var r *analysis.Result
			var solve float64
			before := sp[span]
			if err := sp.time(span, func() (err error) {
				cfg, m := analysisConfig(tr)
				r, err = run(cfg)
				sc.add(m)
				solve = m.Snapshot()["datalog.solve.sec"]
				return err
			}); err != nil {
				return fmt.Errorf("%s %s: %w", name, label, err)
			}
			if r.Degraded {
				return fmt.Errorf("%s %s degraded: %v", name, label, r.DegradedCause)
			}
			if span == "cloned" {
				clonedPrep += sp[span] - before - time.Duration(solve*float64(time.Second))
				paths.Add(paths, r.Numbering.TotalPaths)
			}
			return sp.time("project", func() error {
				for _, s := range r.Schemas() {
					if s.Kind == "output" {
						ok = c.count(name+"."+label+"."+s.Name, r.RelationSize(s.Name).String()) && ok
					}
				}
				return nil
			})
		}
		if err := cell("ci", "alg1", func(cfg analysis.Config) (*analysis.Result, error) {
			return analysis.RunContextInsensitive(f, false, cfg)
		}); err != nil {
			return passResult{}, nil, err
		}
		if err := cell("ci", "alg2", func(cfg analysis.Config) (*analysis.Result, error) {
			return analysis.RunContextInsensitive(f, true, cfg)
		}); err != nil {
			return passResult{}, nil, err
		}
		var g *callgraph.Graph
		if err := sp.time("discover", func() (err error) {
			cfg, m := analysisConfig(tr)
			g, err = analysis.DiscoverCallGraph(f, cfg)
			sc.add(m)
			return err
		}); err != nil {
			return passResult{}, nil, fmt.Errorf("%s alg3: %w", name, err)
		}
		ok = c.count(name+".alg3.edges", strconv.Itoa(len(g.Edges))) && ok
		cells := []struct {
			span, label string
			run         func(*extract.Facts, *callgraph.Graph, analysis.Config) (*analysis.Result, error)
		}{
			{"cloned", "alg5", analysis.RunContextSensitive},
			{"type", "alg6", analysis.RunTypeAnalysis},
			{"thread", "alg7", analysis.RunThreadEscape},
		}
		for _, k := range cells {
			if err := cell(k.span, k.label, func(cfg analysis.Config) (*analysis.Result, error) {
				return k.run(f, g, cfg)
			}); err != nil {
				return passResult{}, nil, err
			}
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	rss := peakRSSMB()
	if !ok {
		return passResult{}, nil, fmt.Errorf("Figure-4 output counts differ from the recorded ones")
	}
	layers := newPassLayers(sp, sc, tr)
	layers["analysis.cloned_prep_s"] = clonedPrep.Seconds()
	layers["callgraph.paths"], _ = new(big.Float).SetInt(paths).Float64()
	tuples := 0
	for _, f := range facts {
		tuples += tupleCount(f)
	}
	layers["extract.tuples"] = float64(tuples)
	return passResult{wall: wall, cpu: cpu, rssMB: rss, covered: sp.total(), layers: layers}, facts, nil
}

// checkSynth checks Algorithm 3 against the map oracle and cs ⊆ ci on
// every program, outside any timed region.
func checkSynth(names []string, facts []*extract.Facts, c *checker) error {
	for i, f := range facts {
		ci, err := checkDiscovery(f, c, names[i]+".ci")
		if err != nil {
			return err
		}
		r, err := analysis.RunContextSensitive(f, nil, analysis.Config{})
		if err != nil {
			return fmt.Errorf("%s cs check solve: %w", names[i], err)
		}
		if miss, ok := subset(r.PointsToPairs(), ci); !ok {
			c.failf("%s: cs pair (%s, %s) is not a ci pair", names[i], f.Vars[miss[0]], f.Heaps[miss[1]])
		}
	}
	return nil
}
