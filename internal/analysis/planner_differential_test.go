package analysis

import (
	"math/big"
	"reflect"
	"sort"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/synth"
)

// leakSrc is the TestMemoryLeakQuery program; the differential pins
// MemoryLeakQuerySrc to its second Node allocation.
const leakSrc = `
entry Main.main
class Node {
    field next
}
class Main {
    static method main(args) {
        cache = new Node
        leaked = new Node
        cache.next = leaked
        global.root = cache
    }
}
`

const securitySrc = `
entry Main.main
class java.lang.String {
    method chars() returns r {
        r = new java.lang.String
    }
}
class Key {
}
class Crypto {
    method init(k) {
    }
}
class Main {
    static method main(args) {
        s = new java.lang.String
        c = s.chars()
        x = new Crypto
        x.init(c)
        k = new Key
        y = new Crypto
        y.init(k)
    }
}
`

// relationFingerprint captures cardinality plus the full sorted tuple
// set for every relation the solve declared, keyed by relation name.
// Enumeration follows the BDD variable order, which the physical
// bindings of each plan can change, so a prefix sample would not be
// comparable across plans; relations past the cap compare by
// cardinality alone.
const fingerprintTupleCap = 50000

func relationFingerprint(t *testing.T, r *Result) map[string]relFP {
	t.Helper()
	out := map[string]relFP{}
	for _, name := range r.Solver.RelationNames() {
		rel := r.Solver.Relation(name)
		fp := relFP{Card: rel.Size().String()}
		if rel.Size().Cmp(big.NewInt(fingerprintTupleCap)) <= 0 {
			rel.Iterate(func(vals []uint64) bool {
				fp.Sample = append(fp.Sample, append([]uint64(nil), vals...))
				return true
			})
			sort.Slice(fp.Sample, func(i, j int) bool {
				a, b := fp.Sample[i], fp.Sample[j]
				for k := range a {
					if a[k] != b[k] {
						return a[k] < b[k]
					}
				}
				return false
			})
		}
		out[name] = fp
	}
	return out
}

type relFP struct {
	Card   string
	Sample [][]uint64
}

// TestPlannerDifferentialAllAlgorithms is satellite coverage for the
// plan-IR refactor: every analysis (Algorithms 1-7) and every Section 5
// query is solved with the optimizer on, with the pinned pre-refactor
// legacy path, and with every rewrite pass disabled. All three must
// produce identical relation cardinalities and tuple samples.
func TestPlannerDifferentialAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config solve sweep")
	}
	prog := synth.Generate(synth.Quick)
	sf, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := facts(t, polySrc)
	lf := facts(t, leakSrc)
	var leakName string
	for h, name := range lf.Heaps {
		if h > 0 && lf.AllocMethod[h] >= 0 && name[len(name)-4:] == "Node" {
			leakName = name
		}
	}
	cf := facts(t, securitySrc)

	cases := []struct {
		name string
		run  func(cfg Config) (*Result, error)
	}{
		{"alg1-ci", func(cfg Config) (*Result, error) { return RunContextInsensitive(sf, false, cfg) }},
		{"alg2-cif", func(cfg Config) (*Result, error) { return RunContextInsensitive(sf, true, cfg) }},
		{"alg3-otf", func(cfg Config) (*Result, error) { return RunOnTheFly(sf, cfg) }},
		{"alg5-cs", func(cfg Config) (*Result, error) { return RunContextSensitive(sf, nil, cfg) }},
		{"alg5-csotf", func(cfg Config) (*Result, error) { return RunContextSensitiveOnTheFly(sf, cfg) }},
		{"alg6-typeci", func(cfg Config) (*Result, error) { return RunTypeAnalysisCI(sf, cfg) }},
		{"alg6-type", func(cfg Config) (*Result, error) { return RunTypeAnalysis(sf, nil, cfg) }},
		{"alg7-threads", func(cfg Config) (*Result, error) { return RunThreadEscape(sf, nil, cfg) }},
		{"alg8-heapcs", func(cfg Config) (*Result, error) { return RunHeapCloned(sf, nil, cfg) }},
		{"q-leak", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = MemoryLeakQuerySrc(leakName)
			return RunContextSensitive(lf, nil, cfg)
		}},
		{"q-security", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = SecurityQuerySrc("java.lang.String", "Crypto.init")
			return RunContextSensitive(cf, nil, cfg)
		}},
		{"q-modref", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = ModRefQuerySrc
			return RunContextSensitive(pf, nil, cfg)
		}},
		{"q-refine", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = TypeRefinementQuerySrc(RefineCIPointer)
			return RunContextInsensitive(pf, true, cfg)
		}},
	}
	// The baseline is the full optimizer; the pinned legacy path and
	// every pass switched off must reproduce it bit-for-bit.
	variants := []struct {
		name string
		plan datalog.PlanConfig
	}{
		{"legacy", datalog.LegacyPlan()},
		{"all-off", datalog.PlanConfig{NoReorder: true, NoPushdown: true, NoHoist: true, NoDeadOps: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := tc.run(Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := relationFingerprint(t, base)
			for _, v := range variants {
				got, err := tc.run(Config{Plan: v.plan})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				fp := relationFingerprint(t, got)
				if len(fp) != len(want) {
					t.Fatalf("%s: %d relations, optimizer produced %d", v.name, len(fp), len(want))
				}
				for name, w := range want {
					g, ok := fp[name]
					if !ok {
						t.Errorf("%s: relation %s missing", v.name, name)
						continue
					}
					if g.Card != w.Card {
						t.Errorf("%s: %s has %s tuples, optimizer produced %s", v.name, name, g.Card, w.Card)
						continue
					}
					if !reflect.DeepEqual(g.Sample, w.Sample) {
						t.Errorf("%s: %s tuple sample differs from optimized run", v.name, name)
					}
				}
			}
		})
	}
}
