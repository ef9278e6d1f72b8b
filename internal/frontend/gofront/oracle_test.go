package gofront

import (
	"testing"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
)

func fixtureFacts(t *testing.T, name string) *extract.Facts {
	t.Helper()
	res := lowerFixture(t, name)
	f, err := extract.Extract(res.Prog, extract.Options{})
	if err != nil {
		t.Fatalf("extracting %s: %v", name, err)
	}
	return f
}

func pairsOf(r *analysis.Result) map[[2]uint64]bool { return r.PointsToPairs() }

func comparePairs(t *testing.T, f *extract.Facts, got, want map[[2]uint64]bool, gotName, wantName string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Fatalf("%s missing vP(%s, %s) present in %s", gotName, f.Vars[k[0]], f.Heaps[k[1]], wantName)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("%s has extra vP(%s, %s) absent from %s", gotName, f.Vars[k[0]], f.Heaps[k[1]], wantName)
		}
	}
}

// TestOracleHandCoded: for every Go fixture, the Datalog engine solving
// the frontend's facts context-insensitively must agree exactly with
// the hand-coded Algorithm 2 BDD pipeline — the same oracle the
// synthetic and .jp programs are held to.
func TestOracleHandCoded(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			hc, err := analysis.RunHandCoded(f)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := analysis.RunContextInsensitive(f, true, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			hcPairs := make(map[[2]uint64]bool)
			hc.VP.Iterate(func(vals []uint64) bool {
				hcPairs[[2]uint64{vals[0], vals[1]}] = true
				return true
			})
			engPairs := pairsOf(eng)
			if len(engPairs) == 0 {
				t.Fatalf("%s: empty points-to result", name)
			}
			comparePairs(t, f, engPairs, hcPairs, "engine", "hand-coded")
		})
	}
}

// TestOraclePlanDifferential: the optimizing planner and the legacy
// pre-planner execution path must produce identical vP on Go-derived
// inputs.
func TestOraclePlanDifferential(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			legacy, err := analysis.RunContextInsensitive(f, true, analysis.Config{Plan: datalog.LegacyPlan()})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := analysis.RunContextInsensitive(f, true, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			comparePairs(t, f, pairsOf(opt), pairsOf(legacy), "optimized-plan", "legacy-plan")
		})
	}
}

// TestFixturesSolveContextSensitively: every fixture must survive the
// full cloning-based context-sensitive pipeline.
func TestFixturesSolveContextSensitively(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			r, err := analysis.RunContextSensitiveOnTheFly(f, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(pairsOf(r)) == 0 {
				t.Fatal("empty context-sensitive points-to result")
			}
		})
	}
}
