// Command gopointsto runs the paper's analyses on real Go packages or
// on a ".jp" program file.
//
// Usage:
//
//	gopointsto [flags] ./path/to/pkg [./other/pkg/...]
//	gopointsto [flags] program.jp
//
// Patterns are directories inside one module, optionally with a
// trailing /... for recursion (e.g. `gopointsto ./internal/order` or
// `gopointsto ./...` from the module root). The packages are parsed
// and type-checked with the standard library only and lowered into the
// IR by internal/frontend/gofront. A single argument ending in .jp is
// instead parsed as a program in the textual IR format
// (internal/program). Either way the IR then goes through the same
// fact extraction, solve and reports.
//
// Algorithms (-algo): ci (Algorithm 1), cif (Algorithm 2,
// type-filtered), otf (Algorithm 3, on-the-fly call graph), cs
// (Algorithm 5, the default), heap-cs (Algorithm 8, heap cloning), type
// (Algorithm 6; also prints the vTC size) and threads (Algorithm 7,
// prints the escape report). -var prints one variable's points-to set.
// -entries picks the Go analysis roots: auto (main.main when present,
// else every exported function), main, exported, or all.
//
// Reports (-report, comma-separated):
//
//	nil        dereferences of variables with empty points-to sets
//	escape     goroutine escape analysis: allocation sites reachable
//	           from more than one goroutine, with source positions
//	           (runs Algorithm 7 in addition to -algo if needed)
//	precision  {ci, cs, heap-cs} mode comparison: how much each
//	           refinement shrinks the points-to and alias relations
//	           (solves all three modes regardless of -algo)
//
// Allocation sites in reports are labeled `file:line new T` when the
// lowering metadata can resolve them, falling back to the raw
// Class.method@site:Type heap name for synthetic objects.
//
// Both reports are heuristics bounded by the frontend's documented
// approximations — see the Caveats table in internal/frontend/gofront
// and DESIGN.md §11. A .jp program has no source positions, so its
// reports fall back to the raw names.
//
// -metrics FILE writes the session metrics as one flat JSON: program
// size (gofront.classes/methods/stmts/allocs/invokes), the Go lowering
// tallies (gofront.packages/funcs/closures/goroutines/extern_calls/
// type_errors, only when Go packages were lowered), extract.vars,
// extract.heaps, solve.vp_pairs, and the solver's own keys (solve time,
// op counts, BDD statistics). Observability (-trace, -metrics, -v,
// -cpuprofile) and resilience (-timeout, -max-nodes,
// -checkpoint-dir, -resume) flags are shared with the other commands:
// budgets exit with code 3, Ctrl-C with code 4. A context-sensitive run
// that blows its budget degrades to the context-insensitive result
// instead of failing; the solved line then names the mode that ran,
// e.g. "cs (degraded to otf): solved in ...".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/obs"
	"bddbddb/internal/precision"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
)

// maxReportLines caps each report's printed rows (the totals always print).
const maxReportLines = 20

func main() {
	algo := flag.String("algo", "cs", "analysis: ci|cif|otf|cs|heap-cs|type|threads")
	entries := flag.String("entries", "auto", "analysis roots: auto|main|exported|all")
	report := flag.String("report", "", "comma-separated reports: nil,escape,precision")
	varName := flag.String("var", "", "print the points-to set of this variable (Class.method/v)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gopointsto [flags] ./pkg [./pkg/...] | program.jp")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("gopointsto")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, sess, rflags, flag.Args(), *algo, *entries, *report, *varName)
	stop()
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", runErr)
		os.Exit(resilience.ExitCode(runErr))
	}
}

func run(ctx context.Context, sess *obs.Session, rflags resilience.Flags,
	patterns []string, algo, entries, report, varName string) error {
	tr := sess.Tracer
	reports := make(map[string]bool)
	for _, r := range strings.Split(report, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if r != "nil" && r != "escape" && r != "precision" {
			return fmt.Errorf("unknown report %q (want nil, escape, or precision)", r)
		}
		reports[r] = true
	}

	res, err := load(tr, sess.Metrics, patterns, entries)
	if err != nil {
		return err
	}
	meta := res.Meta
	st := res.Prog.Stats()
	sess.Metrics.Set("gofront.classes", float64(st.Classes))
	sess.Metrics.Set("gofront.methods", float64(st.Methods))
	sess.Metrics.Set("gofront.stmts", float64(st.Stmts))
	sess.Metrics.Set("gofront.allocs", float64(st.Allocs))
	sess.Metrics.Set("gofront.invokes", float64(st.Invokes))

	obs.Begin(tr, "gopointsto.extract")
	f, err := extract.Extract(res.Prog, extract.Options{})
	obs.End(tr)
	if err != nil {
		return err
	}
	sess.Metrics.Set("extract.vars", float64(len(f.Vars)))
	sess.Metrics.Set("extract.heaps", float64(len(f.Heaps)))

	cfg := analysis.Config{
		Tracer: tr, Metrics: sess.Metrics,
		Context: ctx, Budget: rflags.Budget(),
		CheckpointDir: rflags.CheckpointDir, Resume: rflags.Resume,
	}
	var r *analysis.Result
	obs.Begin(tr, "gopointsto.analyze", obs.A("algo", algo))
	switch algo {
	case "ci":
		r, err = analysis.RunContextInsensitive(f, false, cfg)
	case "cif":
		r, err = analysis.RunContextInsensitive(f, true, cfg)
	case "otf":
		r, err = analysis.RunOnTheFly(f, cfg)
	case "cs":
		r, err = analysis.RunContextSensitive(f, nil, cfg)
	case "heap-cs":
		r, err = analysis.RunHeapCloned(f, nil, cfg)
	case "type":
		r, err = analysis.RunTypeAnalysis(f, nil, cfg)
	case "threads":
		r, err = analysis.RunThreadEscape(f, nil, cfg)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	obs.End(tr)
	if err != nil {
		return err
	}
	mode := algo
	if r.Degraded {
		// Stdout names the mode that actually ran, so a check for
		// "cs: solved" cannot pass on the fallback answer.
		mode += " (degraded to otf)"
		fmt.Fprintf(os.Stderr, "gopointsto: degraded to context-insensitive result: %v\n", r.DegradedCause)
	}
	solved := r.Stats()
	fmt.Printf("%s: solved in %v, %d iterations, peak %d live BDD nodes\n",
		mode, solved.SolveTime, solved.Iterations, solved.PeakLiveNodes)
	if r.Numbering != nil {
		fmt.Printf("contexts: max %s per method, %s total reduced call paths\n",
			callgraph.FormatPathCount(r.Numbering.MaxContexts),
			callgraph.FormatPathCount(r.Numbering.TotalPaths))
	}
	pairs := r.PointsToPairs()
	sess.Metrics.Set("solve.vp_pairs", float64(len(pairs)))
	fmt.Printf("points-to pairs (context-projected): %d over %d variables and %d heap objects\n",
		len(pairs), len(f.Vars), len(f.Heaps))
	if algo == "type" && !r.Degraded {
		fmt.Printf("vTC: %s tuples\n", r.RelationSize("vTC"))
	}

	if varName != "" {
		v := f.VarIndex(varName)
		if v < 0 {
			return fmt.Errorf("unknown variable %q (names are Class.method/var)", varName)
		}
		fmt.Printf("%s points to:\n", varName)
		var labels []string
		for pair := range pairs {
			if pair[0] == uint64(v) {
				labels = append(labels, heapLabel(f.Heaps[pair[1]], meta))
			}
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Printf("  %s\n", l)
		}
	}

	if reports["nil"] {
		printNilReport(res, f, pairs)
	}
	if reports["precision"] {
		if err := printPrecisionReport(tr, res, f, cfg); err != nil {
			return err
		}
	}
	if reports["escape"] || algo == "threads" {
		er := r
		if algo != "threads" {
			obs.Begin(tr, "gopointsto.escape")
			er, err = analysis.RunThreadEscape(f, nil, cfg)
			obs.End(tr)
			if err != nil {
				return err
			}
		}
		printEscapeReport(er, f, meta)
	}
	return nil
}

// load produces the IR program: a single .jp argument is parsed as the
// textual IR, anything else is lowered from Go packages. A .jp program
// gets empty lowering metadata, so the reports fall back to raw names;
// only Go input records the lowering tallies into m.
func load(tr obs.Tracer, m *obs.Metrics, args []string, entries string) (*gofront.Result, error) {
	if len(args) == 1 && strings.HasSuffix(args[0], ".jp") {
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		obs.Begin(tr, "gopointsto.parse")
		prog, err := program.Parse(string(src))
		obs.End(tr)
		if err != nil {
			return nil, err
		}
		st := prog.Stats()
		fmt.Printf("parsed %s: %d classes, %d methods, %d stmts, %d allocation sites\n",
			args[0], st.Classes, st.Methods, st.Stmts, st.Allocs)
		return &gofront.Result{Prog: prog, Meta: &gofront.Meta{}}, nil
	}
	obs.Begin(tr, "gopointsto.lower")
	res, err := gofront.Lower(args, gofront.Options{Entries: gofront.EntryMode(entries)})
	obs.End(tr)
	if err != nil {
		return nil, err
	}
	meta := res.Meta
	st := res.Prog.Stats()
	m.Set("gofront.packages", float64(len(meta.Packages)))
	m.Set("gofront.funcs", float64(meta.Funcs))
	m.Set("gofront.closures", float64(meta.Closures))
	m.Set("gofront.goroutines", float64(meta.Goroutines))
	m.Set("gofront.extern_calls", float64(meta.ExternCalls))
	m.Set("gofront.type_errors", float64(meta.TypeErrors))
	fmt.Printf("lowered %d packages (%d requested): %d classes, %d methods, %d stmts, %d allocation sites\n",
		len(meta.Packages), len(meta.Requested), st.Classes, st.Methods, st.Stmts, st.Allocs)
	if meta.TypeErrors > 0 {
		fmt.Printf("tolerated %d type errors from placeholder imports (external code is opaque)\n", meta.TypeErrors)
	}
	if meta.Goroutines > 0 {
		fmt.Printf("goroutines: %d spawn sites lowered as Thread subclasses\n", meta.Goroutines)
	}
	return res, nil
}

// heapLabel renders a heap object as `file:line new T` when the
// lowering metadata resolves its allocation site, else the raw name.
func heapLabel(heap string, meta *gofront.Meta) string {
	s, ok := gofront.ParseHeapSite(heap, meta)
	if !ok || !s.Pos.IsValid() {
		return heap
	}
	return fmt.Sprintf("%s:%d new %s", s.Pos.Filename, s.Pos.Line, s.Type)
}

// printPrecisionReport solves the {ci, cs, heap-cs} ladder over the
// lowered program and prints how much each refinement step shrinks
// the relations, with source-resolved allocation-site labels and the
// nil-deref heuristic as the per-mode client proxy.
func printPrecisionReport(tr obs.Tracer, res *gofront.Result, f *extract.Facts, cfg analysis.Config) error {
	obs.Begin(tr, "gopointsto.precision")
	defer obs.End(tr)
	rep, err := precision.Compare("go", f, cfg, precision.Options{
		HeapLabel: func(h int) string { return heapLabel(f.Heaps[h], res.Meta) },
		NilReport: func(pairs map[[2]uint64]bool) int {
			return len(gofront.NilDerefs(res.Prog, res.Meta, f, pairs))
		},
	})
	if err != nil {
		return err
	}
	fmt.Println()
	rep.WriteText(os.Stdout)
	return nil
}

// printNilReport lists dereferences the solver cannot prove reachable
// from any allocation site.
func printNilReport(res *gofront.Result, f *extract.Facts, pairs map[[2]uint64]bool) {
	derefs := gofront.NilDerefs(res.Prog, res.Meta, f, pairs)
	fmt.Printf("\nnil-deref report: %d dereferences of variables with empty points-to sets\n", len(derefs))
	fmt.Println("(heuristic: external and untracked values also produce empty sets — see the caveats table)")
	for i, d := range derefs {
		if i == maxReportLines {
			fmt.Printf("  ... and %d more\n", len(derefs)-maxReportLines)
			break
		}
		loc := "synthetic"
		if d.Pos.IsValid() {
			loc = d.Pos.String()
		}
		fmt.Printf("  %s: %s of %s in %s\n", loc, d.What, d.Var, d.Method)
	}
}

// printEscapeReport lists allocation sites reachable from more than
// one thread, resolved back to source positions.
func printEscapeReport(r *analysis.Result, f *extract.Facts, meta *gofront.Meta) {
	m := analysis.EscapeResults(r)
	fmt.Printf("\ngoroutine-escape report: %d captured sites, %d escaped sites, %d unneeded syncs, %d needed syncs\n",
		m.CapturedSites, m.EscapedSites, m.UnneededSyncs, m.NeededSyncs)
	escaped := make(map[uint64]bool)
	r.Relation("escaped").Iterate(func(vals []uint64) bool {
		escaped[vals[1]] = true
		return true
	})
	var sites []gofront.EscapeSite
	for h := range escaped {
		if int(h) >= len(f.Heaps) {
			continue
		}
		if s, ok := gofront.ParseHeapSite(f.Heaps[h], meta); ok {
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Heap < sites[j].Heap })
	for i, s := range sites {
		if i == maxReportLines {
			fmt.Printf("  ... and %d more\n", len(sites)-maxReportLines)
			break
		}
		loc := "synthetic"
		if s.Pos.IsValid() {
			loc = s.Pos.String()
		}
		fmt.Printf("  %s: %s allocated in %s escapes its goroutine\n", loc, s.Type, s.Method)
	}
}
