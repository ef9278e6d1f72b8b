package analysis

import (
	"context"
	"math/rand"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// The incremental-vs-full differential matrix: for every algorithm
// entry point (and the Section 5 queries), a random add/remove delta
// applied to a live solver must leave the full tuple set bit-identical
// to a from-scratch solve of the edited inputs. The from-scratch oracle applies the same delta through
// Config.PreSolve — the exact semantics the live path implements.

type updEntry struct {
	name string
	run  func(f *extract.Facts, cfg Config) (*Result, error)
}

func updEntries(f *extract.Facts) []updEntry {
	alg5With := func(extra string) func(*extract.Facts, Config) (*Result, error) {
		return func(f *extract.Facts, cfg Config) (*Result, error) {
			cfg.ExtraSrc = extra
			return RunContextSensitive(f, nil, cfg)
		}
	}
	return []updEntry{
		{"alg1", func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextInsensitive(f, false, cfg) }},
		{"alg2", func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextInsensitive(f, true, cfg) }},
		{"alg3", RunOnTheFly},
		{"alg5", func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextSensitive(f, nil, cfg) }},
		{"alg5otf", RunContextSensitiveOnTheFly},
		{"alg6ci", RunTypeAnalysisCI},
		{"alg6", func(f *extract.Facts, cfg Config) (*Result, error) { return RunTypeAnalysis(f, nil, cfg) }},
		{"alg7", func(f *extract.Facts, cfg Config) (*Result, error) { return RunThreadEscape(f, nil, cfg) }},
		{"alg8", func(f *extract.Facts, cfg Config) (*Result, error) { return RunHeapCloned(f, nil, cfg) }},
		{"q-leak", alg5With(MemoryLeakQuerySrc(f.Heaps[0]))},
		{"q-security", alg5With(SecurityQuerySrc(f.Types[0], f.Methods[0]))},
		{"q-modref", alg5With(ModRefQuerySrc)},
		{"q-refine", func(f *extract.Facts, cfg Config) (*Result, error) {
			cfg.ExtraSrc = TypeRefinementQuerySrc(RefineCIPointer)
			return RunContextInsensitive(f, true, cfg)
		}},
	}
}

// sampleTuples collects up to n tuples from a relation without
// materializing it (context-domain relations can be huge).
func sampleTuples(r interface {
	Iterate(func([]uint64) bool)
}, n int) [][]uint64 {
	var out [][]uint64
	r.Iterate(func(vals []uint64) bool {
		out = append(out, append([]uint64(nil), vals...))
		return len(out) < n
	})
	return out
}

// randomUpdateDelta builds a delta over the program's extracted input
// relations: random in-range additions plus removals of existing
// tuples. Both the live path and the from-scratch oracle receive the
// same delta, so any divergence is an incremental-solve bug regardless
// of the delta's semantic plausibility.
func randomUpdateDelta(s *datalog.Solver, rng *rand.Rand) datalog.Delta {
	core := []string{"vP0", "store", "load", "actual", "mI"}
	d := datalog.Delta{Add: map[string][][]uint64{}, Remove: map[string][][]uint64{}}
	u := s.Universe()
	for _, name := range core {
		if !s.HasRelation(name) {
			continue
		}
		var decl *datalog.RelationDecl
		for _, rd := range s.RelationDecls() {
			if rd.Name == name {
				decl = rd
				break
			}
		}
		if decl == nil || decl.Kind != datalog.RelInput {
			continue
		}
		for i := 0; i < 2; i++ {
			vals := make([]uint64, len(decl.Attrs))
			for j, a := range decl.Attrs {
				vals[j] = rng.Uint64() % u.Domain(a.Domain).Size
			}
			d.Add[name] = append(d.Add[name], vals)
		}
		if have := sampleTuples(s.Relation(name), 32); len(have) > 0 {
			d.Remove[name] = append(d.Remove[name], have[rng.Intn(len(have))])
		}
	}
	return d
}

func TestIncrementalUpdateDifferentialMatrix(t *testing.T) {
	p := synth.Params{
		Name: "upd", Seed: 11,
		Classes: 6, Interfaces: 2, FieldsPerClass: 2,
		Layers: 4, Width: 2, Fanout: 2,
		VirtualFrac: 0.4, OverrideFrac: 0.4, RecursionFrac: 0.2,
		Threads: 1, SyncsPerThread: 1,
	}
	prog := synth.Generate(p)
	f, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range updEntries(f) {
		t.Run(e.name, func(t *testing.T) {
			live, err := e.run(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(e.name)) * 31))
			d := randomUpdateDelta(live.Solver, rng)

			inc, err := datalog.NewIncrementalSolver(live.Solver)
			if err != nil {
				t.Fatal(err)
			}
			// Apply as two sequential updates — adds first, then
			// removals — which composes to the same state as the
			// oracle's single adds-then-removes pass while forcing
			// the add-only fast path through every algorithm's
			// strata, not just the removal recompute path.
			ctl := resilience.NewController(context.Background(), resilience.Budget{})
			txnAdd, err := inc.Update(ctl, datalog.Delta{Add: d.Add})
			if err != nil {
				t.Fatal(err)
			}
			txnAdd.Commit()
			if len(d.Remove) == 0 {
				t.Fatal("random delta sampled no removals; enlarge the synth config")
			}
			txnRem, err := inc.Update(ctl, datalog.Delta{Remove: d.Remove})
			if err != nil {
				t.Fatal(err)
			}
			txnRem.Commit()
			gotFP, err := live.Solver.ContentFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("adds: %+v; removes: %+v", txnAdd.Stats, txnRem.Stats)

			oracleCfg := Config{}
			oracleCfg.PreSolve = func(s *datalog.Solver) error {
				datalog.ApplyDeltaToRelations(s, d)
				return nil
			}
			oracle, err := e.run(f, oracleCfg)
			if err != nil {
				t.Fatal(err)
			}
			wantFP, err := oracle.Solver.ContentFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if gotFP != wantFP {
				t.Fatalf("incremental fingerprint %s != from-scratch %s", gotFP, wantFP)
			}
		})
	}
}

// TestLiveHelperRoundTrip exercises the analysis-level Live wrapper:
// wire-format deltas with element names against a real pipeline result.
func TestLiveHelperRoundTrip(t *testing.T) {
	prog := synth.Generate(synth.Params{
		Name: "livewrap", Seed: 3,
		Classes: 5, Interfaces: 1, Layers: 3, Width: 2, Fanout: 2,
	})
	f, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContextInsensitive(f, true, Config{DomainSlack: 4})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Live(r)
	if err != nil {
		t.Fatal(err)
	}
	ctl := resilience.NewController(context.Background(), resilience.Budget{})
	// A delta naming a brand-new variable: DomainSlack must have left
	// capacity for it.
	wd := datalog.WireDelta{Add: map[string][]datalog.WireTuple{
		"vP0": {{{Name: "synthetic.new.var", Named: true}, {Name: f.Heaps[0], Named: true}}},
	}}
	stats, err := ls.Begin(ctl, wd)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Full {
		t.Fatalf("stats = %+v", stats)
	}
	ls.Commit()
	id, ok := ls.Solver().ElemIndex("V", "synthetic.new.var")
	if !ok {
		t.Fatal("new element name not registered")
	}
	found := false
	ls.Solver().Relation("vP").Iterate(func(vals []uint64) bool {
		if vals[0] == id {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("vP does not include the added tuple's variable")
	}
}
