package datalog

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"bddbddb/internal/resilience"
)

// incSrc is a mini points-to program with two strata (the second
// negates vP) so updates exercise both the fast semi-naive path and
// the stratification boundary.
const incSrc = `
.domain V 16 var.map
.domain H 8 heap.map
.domain F 4

.relation vP0 (v : V, h : H) input
.relation assign (d : V, s : V) input
.relation store (b : V, f : F, s : V) input
.relation vP (v : V, h : H) output
.relation hP (hb : H, f : F, hs : H) output
.relation vPany (v : V) output
.relation empty (v : V) output

vP(v, h) :- vP0(v, h).
vP(d, h) :- assign(d, s), vP(s, h).
hP(hb, f, hs) :- store(b, f, s), vP(b, hb), vP(s, hs).
vPany(v) :- vP(v, _).
empty(v) :- assign(v, _), !vPany(v).
`

func incOpts() Options {
	return Options{ElemNames: map[string][]string{
		"V": {"v0", "v1", "v2", "v3", "v4", "v5"},
		"H": {"h0", "h1", "h2", "h3"},
	}}
}

func incInputs() map[string][][]uint64 {
	return map[string][][]uint64{
		"vP0":    {{0, 0}, {1, 1}, {2, 2}},
		"assign": {{3, 0}, {4, 3}, {5, 6}},
		"store":  {{1, 0, 2}},
	}
}

func newIncSolver(t *testing.T, opts Options, inputs map[string][][]uint64) *Solver {
	t.Helper()
	s, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleFingerprint solves the program from scratch with the delta
// applied through Options.PreSolve — the exact semantics a live Update
// must reproduce — and returns the full-tuple-set fingerprint.
func oracleFingerprint(t *testing.T, opts Options, inputs map[string][][]uint64, d Delta) string {
	t.Helper()
	opts.PreSolve = func(ns *Solver) error {
		ApplyDeltaToRelations(ns, d)
		return nil
	}
	s, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	fp, err := s.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func ctl() *resilience.Controller {
	return resilience.NewController(context.Background(), resilience.Budget{})
}

func mustFingerprint(t *testing.T, s *Solver) string {
	t.Helper()
	fp, err := s.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestIncrementalAddOnlyFastPath(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	// vP0(6,3) gives v6 (and so v5, assigned from it) its first
	// points-to target: vP, hP, and vPany all grow monotonically, and
	// the empty stratum — which negates the now-grown vPany — must
	// fall back to a recompute (empty(5) disappears).
	d := Delta{Add: map[string][][]uint64{
		"vP0":    {{6, 3}},
		"assign": {{0, 2}},
	}}
	txn, err := inc.Update(ctl(), d)
	if err != nil {
		t.Fatal(err)
	}
	if txn.Stats.Added != 2 || txn.Stats.Removed != 0 {
		t.Fatalf("stats = %+v, want 2 added", txn.Stats)
	}
	if txn.Stats.StrataFast == 0 {
		t.Fatalf("add-only delta took no fast stratum: %+v", txn.Stats)
	}
	if txn.Stats.StrataRecomputed == 0 {
		t.Fatalf("negation stratum on grown vPany did not recompute: %+v", txn.Stats)
	}
	txn.Commit()
	if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("incremental fingerprint %s != from-scratch %s", got, want)
	}
}

func TestIncrementalRemoval(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{
		Add:    map[string][][]uint64{"vP0": {{2, 3}}},
		Remove: map[string][][]uint64{"assign": {{4, 3}}, "vP0": {{0, 0}}},
	}
	txn, err := inc.Update(ctl(), d)
	if err != nil {
		t.Fatal(err)
	}
	if txn.Stats.Removed != 2 {
		t.Fatalf("stats = %+v, want 2 removed", txn.Stats)
	}
	if txn.Stats.StrataRecomputed == 0 {
		t.Fatalf("removal delta recomputed no strata: %+v", txn.Stats)
	}
	txn.Commit()
	if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("incremental fingerprint %s != from-scratch %s", got, want)
	}
}

func TestIncrementalNoEffectiveChange(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	before := mustFingerprint(t, s)
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	// Add a tuple that already exists and remove one that never did.
	d := Delta{
		Add:    map[string][][]uint64{"vP0": {{0, 0}}},
		Remove: map[string][][]uint64{"assign": {{9, 9}}},
	}
	txn, err := inc.Update(ctl(), d)
	if err != nil {
		t.Fatal(err)
	}
	if txn.Stats.Added != 0 || txn.Stats.Removed != 0 || txn.Stats.StrataResolved != 0 {
		t.Fatalf("no-op delta did work: %+v", txn.Stats)
	}
	txn.Commit()
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("no-op delta changed fingerprint %s -> %s", before, got)
	}
}

func TestIncrementalRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		s := newIncSolver(t, incOpts(), incInputs())
		inc, err := NewIncrementalSolver(s)
		if err != nil {
			t.Fatal(err)
		}
		d := Delta{Add: map[string][][]uint64{}, Remove: map[string][][]uint64{}}
		for i := 0; i < 4; i++ {
			tuple := [][]uint64{{uint64(rng.Intn(6)), uint64(rng.Intn(4))}}
			switch rng.Intn(3) {
			case 0:
				d.Add["vP0"] = append(d.Add["vP0"], tuple...)
			case 1:
				d.Remove["vP0"] = append(d.Remove["vP0"], tuple...)
			default:
				d.Add["assign"] = append(d.Add["assign"], [][]uint64{{uint64(rng.Intn(6)), uint64(rng.Intn(6))}}...)
			}
		}
		txn, err := inc.Update(ctl(), d)
		if err != nil {
			t.Fatal(err)
		}
		txn.Commit()
		if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
			t.Fatalf("trial %d: incremental fingerprint %s != from-scratch %s (delta %+v)", trial, got, want, d)
		}
	}
}

func TestIncrementalSequentialUpdates(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{
		{Add: map[string][][]uint64{"vP0": {{3, 1}}}},
		{Remove: map[string][][]uint64{"vP0": {{3, 1}, {1, 1}}}},
		{Add: map[string][][]uint64{"assign": {{2, 5}}}, Remove: map[string][][]uint64{"store": {{1, 0, 2}}}},
	}
	for i, d := range deltas {
		txn, err := inc.Update(ctl(), d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		txn.Commit()
	}
	// Oracle: one from-scratch solve with the composed delta applied in
	// sequence.
	opts := incOpts()
	opts.PreSolve = func(ns *Solver) error {
		for _, d := range deltas {
			ApplyDeltaToRelations(ns, d)
		}
		return nil
	}
	o, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range incInputs() {
		for _, row := range rows {
			o.Relation(name).AddTuple(row...)
		}
	}
	if err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got, want := mustFingerprint(t, s), mustFingerprint(t, o); got != want {
		t.Fatalf("sequential updates fingerprint %s != composed from-scratch %s", got, want)
	}
}

func TestUpdateTxnRollback(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	before := mustFingerprint(t, s)
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := inc.Update(ctl(), Delta{
		Add:    map[string][][]uint64{"vP0": {{4, 2}}},
		Remove: map[string][][]uint64{"assign": {{3, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mustFingerprint(t, s) == before {
		t.Fatal("update had no visible effect before rollback")
	}
	txn.Rollback()
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("rollback fingerprint %s != pre-update %s", got, before)
	}
}

func TestUpdateFaultRollsBack(t *testing.T) {
	for _, point := range []string{resilience.FaultUpdateApply, resilience.FaultUpdateResolve} {
		t.Run(point, func(t *testing.T) {
			s := newIncSolver(t, incOpts(), incInputs())
			before := mustFingerprint(t, s)
			inc, err := NewIncrementalSolver(s)
			if err != nil {
				t.Fatal(err)
			}
			restore := resilience.SetFaultHook(func(name string) {
				if name == point {
					resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
				}
			})
			_, err = inc.Update(ctl(), Delta{Add: map[string][][]uint64{"vP0": {{4, 2}}}})
			restore()
			if !errors.Is(err, resilience.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want budget error", err)
			}
			if got := mustFingerprint(t, s); got != before {
				t.Fatalf("fault at %s left fingerprint %s != pre-update %s", point, got, before)
			}
			// The solver must still accept a clean update afterwards.
			txn, err := inc.Update(ctl(), Delta{Add: map[string][][]uint64{"vP0": {{4, 2}}}})
			if err != nil {
				t.Fatal(err)
			}
			txn.Commit()
		})
	}
}

func TestUpdateRejections(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"unknown relation", Delta{Add: map[string][][]uint64{"nosuch": {{0}}}}},
		{"derived relation", Delta{Add: map[string][][]uint64{"vP": {{0, 0}}}}},
		{"arity", Delta{Add: map[string][][]uint64{"vP0": {{0}}}}},
		{"out of range", Delta{Add: map[string][][]uint64{"vP0": {{99, 0}}}}},
		{"removal out of range", Delta{Remove: map[string][][]uint64{"vP0": {{0, 99}}}}},
	}
	before := mustFingerprint(t, s)
	for _, tc := range cases {
		if _, err := inc.Update(ctl(), tc.d); !errors.Is(err, ErrUpdateRejected) {
			t.Errorf("%s: err = %v, want ErrUpdateRejected", tc.name, err)
		}
	}
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("rejected updates changed state: %s != %s", got, before)
	}
}

func TestResolveWireNames(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	var wd WireDelta
	if err := json.Unmarshal([]byte(`{
		"add":    {"vP0": [["v1", "h3"], ["vNew", 0]]},
		"remove": {"assign": [["v3", "v0"]]}
	}`), &wd); err != nil {
		t.Fatal(err)
	}
	d, err := inc.ResolveWire(wd)
	if err != nil {
		t.Fatal(err)
	}
	// "vNew" was unknown and must have been registered at index 6.
	if v, ok := s.ElemIndex("V", "vNew"); !ok || v != 6 {
		t.Fatalf("vNew resolved to (%d, %v), want (6, true)", v, ok)
	}
	wantAdd := [][]uint64{{1, 3}, {6, 0}}
	if len(d.Add["vP0"]) != 2 || d.Add["vP0"][0][0] != wantAdd[0][0] || d.Add["vP0"][1][0] != wantAdd[1][0] {
		t.Fatalf("resolved add = %v, want %v", d.Add["vP0"], wantAdd)
	}
	if d.Remove["assign"][0][0] != 3 || d.Remove["assign"][0][1] != 0 {
		t.Fatalf("resolved remove = %v", d.Remove["assign"])
	}

	// Unknown name in a removal is a rejection, not a registration.
	bad := WireDelta{Remove: map[string][]WireTuple{
		"vP0": {{{Name: "neverSeen", Named: true}, {Num: 0}}},
	}}
	if _, err := inc.ResolveWire(bad); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("unknown removal name: err = %v, want ErrUpdateRejected", err)
	}
}

func TestAddElemNameDomainFull(t *testing.T) {
	opts := Options{ElemNames: map[string][]string{
		"V": {"v0", "v1", "v2", "v3"},
	}}
	src := `
.domain V 4 var.map
.relation p (v : V) input
.relation q (v : V) output
q(v) :- p(v).
`
	s, err := NewSolver(MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddElemName("V", "overflow"); err == nil {
		t.Fatal("AddElemName on a full domain succeeded")
	}
}

func TestWireDeltaJSONRoundTrip(t *testing.T) {
	in := `{"add":{"store":[["v1",0,"v2"],[3,1,5]]},"remove":{"assign":[[4,3]]}}`
	var wd WireDelta
	if err := json.Unmarshal([]byte(in), &wd); err != nil {
		t.Fatal(err)
	}
	if !wd.Add["store"][0][0].Named || wd.Add["store"][0][0].Name != "v1" {
		t.Fatalf("first value = %+v, want named v1", wd.Add["store"][0][0])
	}
	if wd.Add["store"][1][2].Named || wd.Add["store"][1][2].Num != 5 {
		t.Fatalf("numeric value = %+v", wd.Add["store"][1][2])
	}
	out, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	var wd2 WireDelta
	if err := json.Unmarshal(out, &wd2); err != nil {
		t.Fatal(err)
	}
	if wd2.Add["store"][0][0].Name != "v1" || wd2.Remove["assign"][0][1].Num != 3 {
		t.Fatalf("round trip lost values: %s", out)
	}
	if wd.Empty() {
		t.Fatal("non-empty delta reported Empty")
	}
	if !(WireDelta{}).Empty() {
		t.Fatal("zero delta not Empty")
	}
}

func TestRebaseMatchesOracle(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	// First mutate the live solver so Rebase must copy live state, not
	// the original fills.
	txn, err := inc.Update(ctl(), Delta{Remove: map[string][][]uint64{"vP0": {{1, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	d := Delta{Add: map[string][][]uint64{"assign": {{0, 2}}}}
	ns, err := inc.Rebase(ctl(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: both deltas applied in sequence from scratch.
	opts := incOpts()
	opts.PreSolve = func(o *Solver) error {
		ApplyDeltaToRelations(o, Delta{Remove: map[string][][]uint64{"vP0": {{1, 1}}}})
		ApplyDeltaToRelations(o, d)
		return nil
	}
	o, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range incInputs() {
		for _, row := range rows {
			o.Relation(name).AddTuple(row...)
		}
	}
	if err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got, want := mustFingerprint(t, ns), mustFingerprint(t, o); got != want {
		t.Fatalf("rebase fingerprint %s != oracle %s", got, want)
	}
}

func TestLiveSolverCommitAndRollback(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls, err := NewLiveSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	before := mustFingerprint(t, ls.Solver())
	wd := WireDelta{Add: map[string][]WireTuple{"vP0": {{{Num: 4}, {Num: 2}}}}}
	stats, err := ls.Begin(ctl(), wd)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Full {
		t.Fatalf("stats = %+v", stats)
	}
	if _, err := ls.Begin(ctl(), wd); err == nil {
		t.Fatal("second Begin with pending update succeeded")
	}
	ls.Rollback()
	if got := mustFingerprint(t, ls.Solver()); got != before {
		t.Fatalf("rollback fingerprint %s != %s", got, before)
	}
	if _, err := ls.Begin(ctl(), wd); err != nil {
		t.Fatal(err)
	}
	ls.Commit()
	if got := mustFingerprint(t, ls.Solver()); got == before {
		t.Fatal("committed update not visible")
	}
	if _, err := ls.Begin(ctl(), WireDelta{}); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("empty delta: err = %v, want ErrUpdateRejected", err)
	}
}

func TestLiveSolverDegradesToFullResolve(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls, err := NewLiveSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-canceled controller trips the incremental path immediately;
	// the ladder must degrade to a detached full re-solve.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := resilience.NewController(cctx, resilience.Budget{})
	wd := WireDelta{Add: map[string][]WireTuple{"vP0": {{{Num: 4}, {Num: 2}}}}}
	stats, err := ls.Begin(canceled, wd)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full {
		t.Fatalf("stats = %+v, want Full", stats)
	}
	old := ls.Solver()
	ls.Commit()
	if ls.Solver() == old && old == s {
		t.Fatal("degraded commit did not adopt the rebased solver")
	}
	d := Delta{Add: map[string][][]uint64{"vP0": {{4, 2}}}}
	if got, want := mustFingerprint(t, ls.Solver()), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("degraded fingerprint %s != from-scratch %s", got, want)
	}
	// The adopted solver keeps accepting incremental updates.
	wd2 := WireDelta{Add: map[string][]WireTuple{"assign": {{{Num: 1}, {Num: 4}}}}}
	stats, err = ls.Begin(ctl(), wd2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full {
		t.Fatal("post-degradation update unexpectedly degraded")
	}
	ls.Commit()
}
