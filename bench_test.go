// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablations for the design choices the
// paper calls out. Run:
//
//	go test -bench=. -benchmem
//
// Figure benches report custom metrics (contexts, peak live BDD nodes)
// via b.ReportMetric; cmd/experiments prints the same data as tables.
package bddbddb_test

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/bdd"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/experiments"
	"bddbddb/internal/extract"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// benchSet is the representative spread used by the per-analysis
// benchmarks: one small, one medium, one of the largest (megamek is the
// paper's headline 10^14-context case). Figure 3's statistics run on
// all 21; use cmd/experiments for full tables.
var benchSet = []string{"freetts", "sshdaemon", "megamek"}

var suite = experiments.NewSuite()

func load(b *testing.B, name string) *experiments.Prepared {
	b.Helper()
	p, err := suite.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFigure3Stats regenerates the vital-statistics table: program
// generation, extraction, call graph discovery, and Algorithm 4 path
// counting for all 21 benchmarks.
func BenchmarkFigure3Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite.Figure3(experiments.AllNames())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 21 {
			b.Fatalf("expected 21 rows, got %d", len(rows))
		}
	}
}

// figure4 runs one analysis column of Figure 4 over the bench set.
func figure4(b *testing.B, run func(p *experiments.Prepared) (*analysis.Result, error)) {
	for _, name := range benchSet {
		p := load(b, name)
		b.Run(name, func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				r, err := run(p)
				if err != nil {
					b.Fatal(err)
				}
				peak = r.Stats().PeakLiveNodes
			}
			b.ReportMetric(float64(peak), "peakNodes")
		})
	}
}

// BenchmarkFigure4CINoFilter is Figure 4's "context-insensitive without
// type filtering" column (Algorithm 1).
func BenchmarkFigure4CINoFilter(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunContextInsensitive(p.Facts, false, analysis.Config{})
	})
}

// BenchmarkFigure4CIFilter is the type-filtered column (Algorithm 2).
func BenchmarkFigure4CIFilter(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunContextInsensitive(p.Facts, true, analysis.Config{})
	})
}

// BenchmarkFigure4Discovery is the on-the-fly call graph column
// (Algorithm 3).
func BenchmarkFigure4Discovery(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunOnTheFly(p.Facts, analysis.Config{})
	})
}

// BenchmarkFigure4CSPointer is the context-sensitive pointer analysis
// column (Algorithm 5 over Algorithm 4's cloned graph).
func BenchmarkFigure4CSPointer(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunContextSensitive(p.Facts, p.Graph, analysis.Config{})
	})
}

// BenchmarkFigure4CSType is the context-sensitive type analysis column
// (Algorithm 6) — the paper finds it an order of magnitude faster than
// the pointer analysis.
func BenchmarkFigure4CSType(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunTypeAnalysis(p.Facts, p.Graph, analysis.Config{})
	})
}

// BenchmarkFigure4ThreadSensitive is the thread-sensitive column
// (Algorithm 7) — costs comparable to context-insensitive analysis.
func BenchmarkFigure4ThreadSensitive(b *testing.B) {
	figure4(b, func(p *experiments.Prepared) (*analysis.Result, error) {
		return analysis.RunThreadEscape(p.Facts, p.Graph, analysis.Config{})
	})
}

// BenchmarkFigure5Escape regenerates the escape-analysis table
// (captured/escaped sites, needed/unneeded syncs).
func BenchmarkFigure5Escape(b *testing.B) {
	for _, name := range benchSet {
		p := load(b, name)
		b.Run(name, func(b *testing.B) {
			var m analysis.EscapeMetrics
			for i := 0; i < b.N; i++ {
				r, err := analysis.RunThreadEscape(p.Facts, p.Graph, analysis.Config{})
				if err != nil {
					b.Fatal(err)
				}
				m = analysis.EscapeResults(r)
			}
			b.ReportMetric(float64(m.CapturedSites), "captured")
			b.ReportMetric(float64(m.EscapedSites), "escaped")
			b.ReportMetric(float64(m.UnneededSyncs), "unneededSyncs")
		})
	}
}

// BenchmarkFigure6TypeRefinement regenerates the precision table: the
// six analysis variants' multi-typed and refinable percentages.
func BenchmarkFigure6TypeRefinement(b *testing.B) {
	for _, name := range []string{"freetts", "sshdaemon"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := suite.Figure6([]string{name})
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				// The paper's monotonicity: precision improves left to
				// right (multi-typed percentage falls).
				if r.CSPointer.MultiPct > r.ProjectedCSPointer.MultiPct+1e-9 ||
					r.ProjectedCSPointer.MultiPct > r.CINoFilter.MultiPct+1e-9 {
					b.Fatalf("%s: precision not monotone: %+v", name, r)
				}
				if i == b.N-1 {
					b.ReportMetric(r.CINoFilter.MultiPct, "ciMulti%")
					b.ReportMetric(r.CSPointer.MultiPct, "csMulti%")
				}
			}
		})
	}
}

// BenchmarkScalingPaths sweeps call-skeleton depth to chart analysis
// time against the number of reduced call paths — the paper observes
// roughly O(lg^2 n) growth in the path count n (Section 6.2).
func BenchmarkScalingPaths(b *testing.B) {
	for _, layers := range []int{6, 10, 14, 18, 22} {
		p := synth.Params{
			Name: fmt.Sprintf("scale%d", layers), Seed: 99,
			Classes: 30, Interfaces: 4, Layers: layers, Width: 6, Fanout: 4,
			VirtualFrac: 0.3, OverrideFrac: 0.3, RecursionFrac: 0.1,
		}
		prog := synth.Generate(p)
		f, err := extract.Extract(prog, extract.Options{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := analysis.DiscoverCallGraph(f, analysis.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("layers=%d", layers), func(b *testing.B) {
			var paths string
			for i := 0; i < b.N; i++ {
				r, err := analysis.RunContextSensitive(f, g, analysis.Config{})
				if err != nil {
					b.Fatal(err)
				}
				paths = r.Numbering.MaxContexts.String()
			}
			b.ReportMetric(float64(len(paths)), "pathDigits")
		})
	}
}

// BenchmarkAblationBDDvsNaive pits the BDD Solver against NaiveSolver,
// the oracle that evaluates semi-naively over hash sets of rows, on a
// growing transitive closure — and shows why only the BDD
// representation survives the cloned (context-sensitive) relations,
// whose tuple counts reach 10^14.
func BenchmarkAblationBDDvsNaive(b *testing.B) {
	const tcSrc = `
.domain N 4096
.relation e (a : N, b : N) input
.relation tc (a : N, b : N) output
tc(a, b) :- e(a, b).
tc(a, c) :- tc(a, b), e(b, c).
`
	prog := datalog.MustParse(tcSrc)
	for _, n := range []int{64, 256, 512} {
		edges := make([][2]uint64, 0, n)
		for i := 0; i < n; i++ {
			edges = append(edges, [2]uint64{uint64(i), uint64((i + 1) % n)})
		}
		b.Run(fmt.Sprintf("bdd/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := datalog.NewSolver(prog, datalog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range edges {
					s.Relation("e").AddTuple(e[0], e[1])
				}
				if err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ns, err := datalog.NewNaiveSolver(prog, datalog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range edges {
					ns.AddTuple("e", e[0], e[1])
				}
				if err := ns.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVarOrder compares the shipped variable order against
// the "obvious" contexts-on-top order on a benchmark with 3×10^9
// contexts. Section 2.4.2: ordering is decisive (and NP-complete to
// optimize, hence the empirical search in internal/order).
func BenchmarkAblationVarOrder(b *testing.B) {
	p := load(b, "nfcchat")
	orders := []struct {
		name  string
		order []string
	}{
		{"shipped-VaboveC", nil}, // the tuned default
		{"naive-ContextTop", []string{"C", "I", "Z", "N", "M", "T", "F", "V", "H"}},
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := analysis.RunContextSensitive(p.Facts, p.Graph, analysis.Config{Order: o.order})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTypeFilter shows the paper's Figure 4 observation
// that adding the type filter makes the analysis *faster* (smaller
// points-to sets) as well as more precise.
func BenchmarkAblationTypeFilter(b *testing.B) {
	p := load(b, "sshdaemon")
	for _, mode := range []struct {
		name   string
		filter bool
	}{{"no-filter", false}, {"type-filter", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := analysis.RunContextInsensitive(p.Facts, mode.filter, analysis.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEngineVsHandCoded reproduces the Section 6.4
// comparison: Algorithm 2 evaluated by the bddbddb engine against the
// same rules hand-scheduled as direct relational BDD operations. (The
// paper found its generated code beat the hand-tuned version by up to
// an order of magnitude — mostly thanks to incrementalization, which
// the hand-coded loop, like the paper's, does not do.)
func BenchmarkAblationEngineVsHandCoded(b *testing.B) {
	p := load(b, "sshdaemon")
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.RunContextInsensitive(p.Facts, true, analysis.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand-coded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.RunHandCoded(p.Facts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationContextNumbering compares Algorithm 4's contiguous
// context numbering against a bit-reversal-scrambled numbering of the
// same cloned graph. Contiguity is "key to the scalability of the
// technique" (abstract): ranges become linear-sized BDDs and similar
// contexts share structure. Both arms load the invocation edges the
// same way (tuple by tuple), so only the numbering differs.
func BenchmarkAblationContextNumbering(b *testing.B) {
	prog := synth.Generate(synth.Params{
		Name: "numbering", Seed: 17, Classes: 16, Interfaces: 2,
		Layers: 12, Width: 4, Fanout: 2, VirtualFrac: 0.2, OverrideFrac: 0.2,
	})
	f, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := analysis.DiscoverCallGraph(f, analysis.Config{})
	if err != nil {
		b.Fatal(err)
	}
	n, err := callgraph.Number(g)
	if err != nil {
		b.Fatal(err)
	}
	identity := func(c uint64) uint64 { return c }
	// Round the context domain to a power of two so the multiplicative
	// scramble (odd multiplier mod 2^k) is a true bijection: the two
	// arms then solve exactly isomorphic instances, differing only in
	// numbering. Knuth's multiplier turns every contiguous range into a
	// pseudo-random scatter, which is precisely the sharing Algorithm
	// 4's numbering exists to preserve.
	csize := uint64(1)
	for csize < n.ContextDomainSize(1<<16) {
		csize <<= 1
	}
	scramble := func(c uint64) uint64 {
		return (c * 2654435761) & (csize - 1)
	}
	for _, arm := range []struct {
		name string
		perm func(uint64) uint64
	}{{"contiguous", identity}, {"scrambled", scramble}} {
		b.Run(arm.name, func(b *testing.B) {
			var iecNodes int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, nodes, err := preparePermuted(f, n, csize, arm.perm)
				if err != nil {
					b.Fatal(err)
				}
				iecNodes = nodes
				b.StartTimer()
				if err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(iecNodes), "iecNodes")
		})
	}
}

// preparePermuted builds an Algorithm 5 solver whose context numbers
// all pass through perm. perm = identity reproduces Algorithm 4's
// numbering; a bijective scramble keeps the instance isomorphic but
// destroys the BDD sharing the contiguous scheme creates. Returns the
// loaded solver and the node count of the IEC BDD.
func preparePermuted(f *extract.Facts, n *callgraph.Numbering, csize uint64, perm func(uint64) uint64) (*datalog.Solver, int, error) {
	prog := datalog.MustParse(analysis.Algorithm5Src)
	opts := datalog.Options{DomainSizes: map[string]uint64{
		"V": uint64(len(f.Vars)), "H": uint64(len(f.Heaps)),
		"F": uint64(len(f.Fields)), "T": uint64(len(f.Types)),
		"I": uint64(len(f.Invokes)), "N": uint64(len(f.Names)),
		"M": uint64(len(f.Methods)), "Z": f.ZSize, "C": csize,
	}, Order: []string{"N", "F", "I", "M", "Z", "V", "C", "T", "H"}}
	s, err := datalog.NewSolver(prog, opts)
	if err != nil {
		return nil, 0, err
	}
	iecRel, err := n.MaterializeIEC(s.Universe(), "tmp",
		s.Relation("IEC").Attrs()[0], s.Relation("IEC").Attrs()[1],
		s.Relation("IEC").Attrs()[2], s.Relation("IEC").Attrs()[3])
	if err != nil {
		return nil, 0, err
	}
	iecRel.Iterate(func(vals []uint64) bool {
		s.Relation("IEC").AddTuple(perm(vals[0]), vals[1], perm(vals[2]), vals[3])
		return true
	})
	iecRel.Free()
	hcRel := n.MaterializeHC(s.Universe(), "tmp2",
		s.Relation("hC").Attrs()[0], s.Relation("hC").Attrs()[1], f.AllocMethod)
	hcRel.Iterate(func(vals []uint64) bool {
		s.Relation("hC").AddTuple(perm(vals[0]), vals[1])
		return true
	})
	hcRel.Free()
	for name, tuples := range map[string][]extract.Tuple{
		"vP0": f.VP0, "store": f.Store, "load": f.Load,
		"vT": f.VT, "hT": f.HT, "aT": f.AT,
		"actual": f.Actual, "formal": f.Formal,
		"Mret": f.Mret, "Iret": f.Iret,
	} {
		r := s.Relation(name)
		for _, t := range tuples {
			r.AddTuple(t...)
		}
	}
	nodes := s.Universe().M.NodeCount(s.Relation("IEC").Root())
	return s, nodes, nil
}

// BenchmarkAblationRangePrimitive measures the Section 4.1 range
// primitive ("creates a BDD representation of contiguous ranges of
// numbers in O(k) operations") against the naive per-value union.
func BenchmarkAblationRangePrimitive(b *testing.B) {
	for _, span := range []uint64{1 << 10, 1 << 14} {
		m := bdd.New(1<<18, 1<<14)
		d := m.DeclareDomain("D", 1<<20)
		if err := m.FinalizeOrder(""); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rangePrimitive/span=%d", span), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := d.Range(17, 17+span)
				m.Deref(r)
			}
		})
		b.Run(fmt.Sprintf("naiveUnion/span=%d", span), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := d.RangeNaive(17, 17+span)
				m.Deref(r)
			}
		})
	}
}

// BenchmarkContextCounting measures Algorithm 4 alone: exact big-integer
// path counting over the largest call graph (pmd's 6×10^23 paths).
func BenchmarkContextCounting(b *testing.B) {
	p := load(b, "pmd")
	var total *big.Int
	for i := 0; i < b.N; i++ {
		n, err := callgraph.Number(p.Graph)
		if err != nil {
			b.Fatal(err)
		}
		total = n.MaxContexts
	}
	b.ReportMetric(float64(len(total.String())), "pathDigits")
}

// BenchmarkBudgetOverhead isolates the resilience layer's cost: the
// same context-sensitive pointer analysis with no controller (nil
// checks only) against a fully armed one — cancelable context, node and
// iteration budgets, and a deadline, which together enable the
// strided polls in every BDD recursion, the budget checks at table
// growth/GC, and the per-rule cancellation checks. The limits sit far
// above the workload's needs so both arms do identical work; the
// acceptance bar is <2% overhead, measured with
//
//	go test -run '^$' -bench BenchmarkBudgetOverhead -count 5 .
func BenchmarkBudgetOverhead(b *testing.B) {
	p := load(b, "sshdaemon")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, mode := range []struct {
		name string
		cfg  analysis.Config
	}{
		{"baseline", analysis.Config{}},
		{"budgeted", analysis.Config{
			Context: ctx,
			Budget: resilience.Budget{
				MaxLiveNodes:  1 << 30,
				Timeout:       time.Hour,
				MaxIterations: 1 << 40,
			},
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.RunContextSensitive(p.Facts, p.Graph, mode.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
