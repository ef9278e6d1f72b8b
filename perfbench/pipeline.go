package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
)

// pairs is a set of (variable, heap) points-to pairs with contexts
// projected away.
type pairs = map[[2]uint64]bool

// pairDigest hashes the sorted named pairs. Names, not domain indices,
// make it independent of how facts are numbered and of BDD layout.
func pairDigest(ps pairs, f *extract.Facts) string {
	lines := make([]string, 0, len(ps))
	for p := range ps {
		lines = append(lines, f.Vars[p[0]]+"\x00"+f.Heaps[p[1]]+"\n")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// subset reports the first pair of a missing from b.
func subset(a, b pairs) (missing [2]uint64, ok bool) {
	for p := range a {
		if !b[p] {
			return p, false
		}
	}
	return [2]uint64{}, true
}

// heapClonedPairs projects Algorithm 8's cvP(context, variable, hctx,
// heap) to (variable, heap) pairs — never enumerating cvP itself, which
// can hold astronomically many tuples.
func heapClonedPairs(r *analysis.Result) pairs {
	proj := r.Relation("cvP").ProjectOut("perfbench.cvP", "context", "hctx")
	defer proj.Free()
	out := make(pairs)
	proj.Iterate(func(vals []uint64) bool {
		out[[2]uint64{vals[0], vals[1]}] = true
		return true
	})
	return out
}

func stmtCount(p *program.Program) int {
	n := 0
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			n += len(m.Stmts)
		}
	}
	return n
}

func tupleCount(f *extract.Facts) int {
	n := 0
	for _, ts := range [][]extract.Tuple{f.VP0, f.Assign, f.Store, f.Load, f.VT, f.HT, f.AT, f.Cha,
		f.Actual, f.Formal, f.IE0, f.MI, f.Mret, f.Iret, f.MV, f.Syncs} {
		n += len(ts)
	}
	return n
}

// layerSpans lists the benchmark's spans around each public call, with
// the per-layer metric each feeds. Together they cover a pass.
var layerSpans = map[string]string{
	"lower":    "gofront.lower_s",
	"extract":  "extract.s",
	"discover": "analysis.discover_s",
	"ci":       "analysis.ci_s",
	"cloned":   "analysis.cloned_s",
	"type":     "analysis.type_s",
	"thread":   "analysis.thread_s",
	"project":  "analysis.project_s",
}

// passResult is one measured pass of a batch workload.
type passResult struct {
	wall    time.Duration
	cpu     time.Duration // CPU time of the process during the pass
	covered time.Duration // sum of the benchmark's layer spans
	rssMB   float64
	layers  map[string]float64 // per-layer metrics of this pass
}

// newPassLayers turns a pass's spans and counters into its per-layer
// metrics.
func newPassLayers(sp spans, sc *solveCounters, tr *spanSums) map[string]float64 {
	out := make(map[string]float64)
	for span, d := range sp {
		out[layerSpans[span]] = d.Seconds()
	}
	sc.addTo(out)
	if tr != nil {
		tr.addTo(out)
	}
	return out
}

// analysisConfig is the library default plus the two observability
// sinks: a fresh registry per call, so solves do not overwrite each
// other's counters, and the traced run's span aggregator.
func analysisConfig(tr *spanSums) (analysis.Config, *obs.Metrics) {
	m := obs.New()
	cfg := analysis.Config{Metrics: m}
	if tr != nil {
		cfg.Tracer = tr
	}
	return cfg, m
}

// goSpec is a real-Go workload: a pinned package pattern under
// GOROOT/src, analysed by Algorithm 3 discovery and then Algorithm 5
// (or Algorithm 8 with heap cloning).
type goSpec struct {
	pattern string
	heap    bool
}

var goSpecs = map[string]goSpec{
	"go-types-cs":        {pattern: "go/types"},
	"go-encoding-heapcs": {pattern: "encoding/...", heap: true},
}

// goPass is what a pass leaves for the after-run checks.
type goPass struct {
	facts *extract.Facts
	graph *callgraph.Graph
	pairs pairs
}

// goSolve is a pinned pattern solved from source: lowered, extracted,
// its call graph discovered (Algorithm 3) and the cloned analysis run
// (Algorithm 5, or 8 with heap cloning), each public call timed under
// its layer span.
type goSolve struct {
	low         *gofront.Result
	facts       *extract.Facts
	graph       *callgraph.Graph
	r           *analysis.Result
	sp          spans
	sc          *solveCounters
	clonedSolve float64 // datalog solve seconds inside the cloned span
}

// solveGo runs the solve. tr is nil in untraced passes.
func solveGo(spec goSpec, tr *spanSums) (*goSolve, error) {
	g := &goSolve{sp: spans{}, sc: newSolveCounters()}
	if err := g.sp.time("lower", func() (err error) {
		g.low, err = gofront.Lower([]string{patternDir(spec.pattern)}, gofront.Options{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("lower %s: %w", spec.pattern, err)
	}
	if err := g.sp.time("extract", func() (err error) {
		g.facts, err = extract.Extract(g.low.Prog, extract.Options{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	if err := g.sp.time("discover", func() (err error) {
		cfg, m := analysisConfig(tr)
		g.graph, err = analysis.DiscoverCallGraph(g.facts, cfg)
		g.sc.add(m)
		return err
	}); err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	if err := g.sp.time("cloned", func() (err error) {
		cfg, m := analysisConfig(tr)
		if spec.heap {
			g.r, err = analysis.RunHeapCloned(g.facts, g.graph, cfg)
		} else {
			g.r, err = analysis.RunContextSensitive(g.facts, g.graph, cfg)
		}
		g.sc.add(m)
		g.clonedSolve = m.Snapshot()["datalog.solve.sec"]
		return err
	}); err != nil {
		return nil, fmt.Errorf("cloned solve: %w", err)
	}
	if g.r.Degraded {
		return nil, fmt.Errorf("cloned solve degraded: %v", g.r.DegradedCause)
	}
	return g, nil
}

// layers returns the solve's per-layer metrics.
func (g *goSolve) layers(tr *spanSums) map[string]float64 {
	out := newPassLayers(g.sp, g.sc, tr)
	out["gofront.stmts"] = float64(stmtCount(g.low.Prog))
	out["extract.tuples"] = float64(tupleCount(g.facts))
	out["callgraph.paths"], _ = new(big.Float).SetInt(g.r.Numbering.TotalPaths).Float64()
	out["analysis.cloned_prep_s"] = g.sp["cloned"].Seconds() - g.clonedSolve
	return out
}

// runGoPass runs one pass, source to checked points-to pairs. tr is
// nil in untraced passes.
func runGoPass(spec goSpec, c *checker, tr *spanSums) (passResult, *goPass, error) {
	settle()
	resetPeakRSS()
	start, cpu0 := time.Now(), cpuTime()
	g, err := solveGo(spec, tr)
	if err != nil {
		return passResult{}, nil, err
	}
	out := goPass{facts: g.facts, graph: g.graph}
	_ = g.sp.time("project", func() error {
		if spec.heap {
			out.pairs = heapClonedPairs(g.r)
		} else {
			out.pairs = g.r.PointsToPairs()
		}
		return nil
	})
	wall, cpu := time.Since(start), cpuTime()-cpu0
	rss := peakRSSMB()

	layers := g.layers(tr)
	ok := c.digest("pairs", pairDigest(out.pairs, out.facts))
	ok = c.count("pairs", strconv.Itoa(len(out.pairs))) && ok
	if spec.heap {
		ok = c.count("cvP", g.r.RelationSize("cvP").String()) && ok
	}
	ok = c.count("vPC", g.r.RelationSize("vPC").String()) && ok
	ok = c.count("callgraph.paths", g.r.Numbering.TotalPaths.String()) && ok
	ok = c.count("gofront.stmts", strconv.Itoa(int(layers["gofront.stmts"]))) && ok
	ok = c.count("extract.tuples", strconv.Itoa(int(layers["extract.tuples"]))) && ok
	if !ok {
		return passResult{}, nil, fmt.Errorf("pass output differs from the recorded one")
	}
	return passResult{wall: wall, cpu: cpu, covered: g.sp.total(), rssMB: rss, layers: layers}, &out, nil
}

// checkGo runs the after-run output checks on the last pass, outside
// any timed region: Algorithm 3 against the map oracle, and the
// precision ladder heap-cs ⊆ cs ⊆ ci on projected pairs.
func checkGo(spec goSpec, p *goPass, c *checker) error {
	ci, err := checkDiscovery(p.facts, c, "ci")
	if err != nil {
		return err
	}
	cs := p.pairs
	if spec.heap {
		r, err := analysis.RunContextSensitive(p.facts, p.graph, analysis.Config{})
		if err != nil {
			return fmt.Errorf("cs check solve: %w", err)
		}
		cs = r.PointsToPairs()
		c.count("cs.pairs", strconv.Itoa(len(cs)))
		c.digest("cs.pairs", pairDigest(cs, p.facts))
		if miss, ok := subset(p.pairs, cs); !ok {
			c.failf("heap-cs pair (%s, %s) is not a cs pair", p.facts.Vars[miss[0]], p.facts.Heaps[miss[1]])
		}
	}
	if miss, ok := subset(cs, ci); !ok {
		c.failf("cs pair (%s, %s) is not a ci pair", p.facts.Vars[miss[0]], p.facts.Heaps[miss[1]])
	}
	return nil
}

// checkDiscovery solves Algorithm 3 and compares its pairs with the
// map-based oracle analysis.ReferenceOnTheFly; it returns the ci pairs.
func checkDiscovery(f *extract.Facts, c *checker, name string) (pairs, error) {
	r, err := analysis.RunOnTheFly(f, analysis.Config{})
	if err != nil {
		return nil, fmt.Errorf("Algorithm 3 check solve: %w", err)
	}
	ci := r.PointsToPairs()
	ref := analysis.ReferenceOnTheFly(f, true).VPSet()
	if miss, ok := subset(ci, ref); !ok {
		c.failf("%s: Algorithm 3 pair (%s, %s) is not in the reference", name, f.Vars[miss[0]], f.Heaps[miss[1]])
	}
	if miss, ok := subset(ref, ci); !ok {
		c.failf("%s: reference pair (%s, %s) is missing from Algorithm 3", name, f.Vars[miss[0]], f.Heaps[miss[1]])
	}
	c.count(name+".pairs", strconv.Itoa(len(ci)))
	c.digest(name+".pairs", pairDigest(ci, f))
	return ci, nil
}
