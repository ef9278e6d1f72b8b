package datalog

import (
	"math/rand"
	"reflect"
	"testing"

	"bddbddb/internal/rel"
)

// hoistSrc has one recursive stratum {path, two} whose rules read the
// stratum's own relations through every kind of literal pipeline: a
// renamed recursive literal (path(y, z) must move y onto path(x, y)'s
// instance), a projection (path(y, _)), a constant selection
// (path(1, y)), and a negated lower-stratum literal (a Complement).
// Each recursive rule has at least two recursive positions, so the semi-naive
// loop reads every recursive literal in full while its source grows.
const hoistSrc = `
.domain V 24
.relation e (a : V, b : V) input
.relation blocked (a : V) input
.relation path (a : V, b : V) output
.relation two (a : V, b : V) output

path(x, y) :- e(x, y).
path(x, z) :- path(x, y), path(y, z), !blocked(z).
two(x, y) :- path(x, y), path(y, _).
two(x, z) :- path(x, y), two(y, z).
path(x, y) :- two(x, y), path(1, y).
`

// TestHoistedCacheAdvanceMatchesRebuild drives every stratum through
// derive the way Solve does and, after each derive, checks that every
// hoisting cache still valid for its source equals a rebuild from the
// whole source — the advance-by-union rule must be indistinguishable
// from rebuilding.
func TestHoistedCacheAdvanceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inputs := map[string][][]uint64{"blocked": {{5}, {11}}}
	for i := 0; i < 40; i++ {
		inputs["e"] = append(inputs["e"], []uint64{uint64(rng.Intn(24)), uint64(rng.Intn(24))})
	}
	want := solveBoth(t, hoistSrc, Options{}, inputs)

	s, err := NewSolver(MustParse(hoistSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		s.Relation(name).AddTuples(rows)
	}
	checked, complements := 0, 0
	check := func(ev *stratumEval) {
		t.Helper()
		for _, cr := range ev.rules {
			for idx, c := range cr.cache {
				if c.norm == nil {
					continue
				}
				if !c.canAdvance() {
					complements++
					if c.advances > 0 {
						t.Fatalf("rule %s: Complement pipeline at %d advanced", cr.rule, idx)
					}
				}
				src := s.rels[c.lit.Pred]
				if c.src != src || c.stamp != src.Stamp() {
					continue // stale: the next read rebuilds it
				}
				rebuilt := s.runPipeline(c.lit, src)
				if !rebuilt.SameTuples(c.norm) {
					t.Fatalf("rule %s: cache at %d after %d advances holds %v, rebuild %v",
						cr.rule, idx, c.advances, c.norm.Tuples(), rebuilt.Tuples())
				}
				rebuilt.Free()
				if c.advances > 0 {
					checked++
				}
			}
		}
	}
	// inject adds one tuple of the final path that is not derived yet,
	// past derive, as any other mutation of a head would: the caches
	// over path must go stale (and be rebuilt on their next read), not
	// be advanced by the next derive. The tuple also joins the frontier,
	// so the fixpoint is unchanged.
	injected := false
	inject := func(next map[string]*rel.Relation) bool {
		path := s.rels["path"]
		for _, row := range want.Relation("path").Tuples() {
			one := s.u.NewRelation("one", path.Attrs()...)
			one.AddTuple(row...)
			if path.UnionWith(one) {
				if d := next["path"]; d != nil {
					d.UnionWith(one)
					one.Free()
				} else {
					next["path"] = one
				}
				return true
			}
			one.Free()
		}
		return false
	}
	for _, st := range s.strata {
		ev := s.planStratum(st)
		for _, cr := range ev.rules {
			if len(cr.recursivePositions(ev.inStratum)) == 0 {
				s.derive(ev, cr, cr.plans[-1], nil, nil)
				check(ev)
			}
		}
		delta := make(map[string]*rel.Relation)
		if len(ev.recur) > 0 {
			for _, p := range st.preds {
				delta[p] = s.rels[p].Clone("Δ" + p)
			}
		}
		for len(delta) > 0 {
			next := make(map[string]*rel.Relation)
			for _, cr := range ev.recur {
				for _, pos := range cr.recursivePositions(ev.inStratum) {
					if d := delta[cr.naive.Lits[pos].Pred]; d != nil && !d.IsEmpty() {
						s.derive(ev, cr, cr.plans[pos], d, next)
						check(ev)
						if !injected {
							injected = inject(next)
							check(ev)
						}
					}
				}
			}
			for _, d := range delta {
				d.Free()
			}
			delta = next
		}
		ev.release(s.u.M)
	}

	for _, name := range []string{"path", "two"} {
		if got, w := s.Relation(name).Tuples(), want.Relation(name).Tuples(); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: driven %v, Solve %v", name, got, w)
		}
	}
	if n := s.cHoistAdvances.Value(); n == 0 {
		t.Fatal("datalog.op.norm_cache_advances = 0: no cache was advanced")
	}
	if checked == 0 {
		t.Fatal("no advanced cache was compared against a rebuild")
	}
	if !injected {
		t.Fatal("no tuple was injected past derive")
	}
	if complements == 0 {
		t.Fatal("no Complement pipeline was cached")
	}
	if n := want.Metrics().Counter("datalog.op.norm_cache_advances").Value(); n == 0 {
		t.Fatal("Solve advanced no cache")
	}
}
