package bdd

import (
	"math/big"
	"math/rand"
	"testing"
)

// buildFromTable constructs the BDD of an arbitrary boolean function
// given as a truth table over nvars variables (row index bit i = value
// of variable at level i). It is the test oracle's way of producing
// arbitrary functions.
func buildFromTable(t *testing.T, m *Manager, table []bool, nvars int) Node {
	t.Helper()
	if len(table) != 1<<uint(nvars) {
		t.Fatalf("table size %d for %d vars", len(table), nvars)
	}
	var build func(level int, rows []int) Node
	build = func(level int, rows []int) Node {
		allTrue, allFalse := true, true
		for _, r := range rows {
			if table[r] {
				allFalse = false
			} else {
				allTrue = false
			}
		}
		if allTrue {
			return True
		}
		if allFalse {
			return False
		}
		var lows, highs []int
		for _, r := range rows {
			if r&(1<<uint(level)) != 0 {
				highs = append(highs, r)
			} else {
				lows = append(lows, r)
			}
		}
		lo := build(level+1, lows)
		hi := build(level+1, highs)
		return m.makeNode(int32(level), lo, hi)
	}
	rows := make([]int, len(table))
	for i := range rows {
		rows[i] = i
	}
	return m.Ref(build(0, rows))
}

func assignmentOf(row, nvars int) []bool {
	a := make([]bool, nvars)
	for i := 0; i < nvars; i++ {
		a[i] = row&(1<<uint(i)) != 0
	}
	return a
}

func randTable(rng *rand.Rand, nvars int) []bool {
	t := make([]bool, 1<<uint(nvars))
	for i := range t {
		t[i] = rng.Intn(2) == 1
	}
	return t
}

func TestTerminals(t *testing.T) {
	m := New(0, 0)
	if m.Eval(True, nil) != true {
		t.Fatal("True should evaluate to true")
	}
	if m.Eval(False, nil) != false {
		t.Fatal("False should evaluate to false")
	}
	if !m.IsTerminal(True) || !m.IsTerminal(False) {
		t.Fatal("terminals not recognized")
	}
}

func TestVarAndEval(t *testing.T) {
	m := New(0, 0)
	m.AddVars(3)
	v1 := m.Var(1)
	for row := 0; row < 8; row++ {
		a := assignmentOf(row, 3)
		if m.Eval(v1, a) != a[1] {
			t.Fatalf("Var(1) wrong on %v", a)
		}
	}
	n1 := m.NVar(1)
	for row := 0; row < 8; row++ {
		a := assignmentOf(row, 3)
		if m.Eval(n1, a) != !a[1] {
			t.Fatalf("NVar(1) wrong on %v", a)
		}
	}
}

func TestHashConsing(t *testing.T) {
	m := New(0, 0)
	m.AddVars(2)
	a := m.makeNode(0, False, True)
	b := m.makeNode(0, False, True)
	if a != b {
		t.Fatalf("structurally equal nodes got different indices %d %d", a, b)
	}
	if m.makeNode(1, a, a) != a {
		t.Fatal("redundant node not reduced")
	}
}

func TestMakeNodeOrderViolation(t *testing.T) {
	m := New(0, 0)
	m.AddVars(2)
	child := m.makeNode(0, False, True)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on order violation")
		}
	}()
	m.makeNode(1, child, True) // child at level 0 cannot sit under level 1
}

func TestBuildFromTableRoundTrip(t *testing.T) {
	const nvars = 4
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		table := randTable(rng, nvars)
		n := buildFromTable(t, m, table, nvars)
		for row := range table {
			if m.Eval(n, assignmentOf(row, nvars)) != table[row] {
				t.Fatalf("trial %d row %d mismatch", trial, row)
			}
		}
		m.Deref(n)
	}
}

func TestBinaryOpsAgainstTruthTables(t *testing.T) {
	const nvars = 4
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(2))
	type opCase struct {
		name string
		bdd  func(a, b Node) Node
		bool func(a, b bool) bool
	}
	cases := []opCase{
		{"And", m.And, func(a, b bool) bool { return a && b }},
		{"Or", m.Or, func(a, b bool) bool { return a || b }},
		{"Xor", m.Xor, func(a, b bool) bool { return a != b }},
		{"Diff", m.Diff, func(a, b bool) bool { return a && !b }},
		{"Imp", m.Imp, func(a, b bool) bool { return !a || b }},
		{"Biimp", m.Biimp, func(a, b bool) bool { return a == b }},
	}
	for trial := 0; trial < 30; trial++ {
		ta, tb := randTable(rng, nvars), randTable(rng, nvars)
		na := buildFromTable(t, m, ta, nvars)
		nb := buildFromTable(t, m, tb, nvars)
		for _, c := range cases {
			res := c.bdd(na, nb)
			for row := range ta {
				want := c.bool(ta[row], tb[row])
				if got := m.Eval(res, assignmentOf(row, nvars)); got != want {
					t.Fatalf("%s trial %d row %d: got %v want %v", c.name, trial, row, got, want)
				}
			}
			m.Deref(res)
		}
		m.Deref(na)
		m.Deref(nb)
	}
}

func TestNotAndITE(t *testing.T) {
	const nvars = 4
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		ta, tb, tc := randTable(rng, nvars), randTable(rng, nvars), randTable(rng, nvars)
		na := buildFromTable(t, m, ta, nvars)
		nb := buildFromTable(t, m, tb, nvars)
		nc := buildFromTable(t, m, tc, nvars)
		nn := m.Not(na)
		ni := m.ITE(na, nb, nc)
		for row := range ta {
			a := assignmentOf(row, nvars)
			if m.Eval(nn, a) != !ta[row] {
				t.Fatalf("Not wrong at row %d", row)
			}
			want := tc[row]
			if ta[row] {
				want = tb[row]
			}
			if m.Eval(ni, a) != want {
				t.Fatalf("ITE wrong at row %d", row)
			}
		}
		for _, n := range []Node{na, nb, nc, nn, ni} {
			m.Deref(n)
		}
	}
}

func TestExistAgainstBruteForce(t *testing.T) {
	const nvars = 5
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		table := randTable(rng, nvars)
		n := buildFromTable(t, m, table, nvars)
		// Quantify away a random subset of variables.
		var qvars []int32
		for v := int32(0); v < nvars; v++ {
			if rng.Intn(2) == 1 {
				qvars = append(qvars, v)
			}
		}
		vs := m.MakeSet(qvars)
		ex := m.Exist(n, vs)
		for row := 0; row < 1<<nvars; row++ {
			a := assignmentOf(row, nvars)
			// Brute force: OR over all settings of the quantified vars.
			want := false
			k := len(qvars)
			for mask := 0; mask < 1<<uint(k); mask++ {
				b := append([]bool(nil), a...)
				for i, v := range qvars {
					b[v] = mask&(1<<uint(i)) != 0
				}
				r := 0
				for i := 0; i < nvars; i++ {
					if b[i] {
						r |= 1 << uint(i)
					}
				}
				if table[r] {
					want = true
					break
				}
			}
			if got := m.Eval(ex, a); got != want {
				t.Fatalf("Exist trial %d row %d: got %v want %v (qvars %v)", trial, row, got, want, qvars)
			}
		}
		m.Deref(n)
		m.Deref(vs)
		m.Deref(ex)
	}
}

func TestAndExistMatchesComposition(t *testing.T) {
	const nvars = 5
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		ta, tb := randTable(rng, nvars), randTable(rng, nvars)
		na := buildFromTable(t, m, ta, nvars)
		nb := buildFromTable(t, m, tb, nvars)
		var qvars []int32
		for v := int32(0); v < nvars; v++ {
			if rng.Intn(2) == 1 {
				qvars = append(qvars, v)
			}
		}
		vs := m.MakeSet(qvars)
		fused := m.AndExist(na, nb, vs)
		anded := m.And(na, nb)
		composed := m.Exist(anded, vs)
		if fused != composed {
			t.Fatalf("trial %d: AndExist != Exist∘And (canonicity violated)", trial)
		}
		for _, n := range []Node{na, nb, vs, fused, anded, composed} {
			m.Deref(n)
		}
	}
}

func TestSatCount(t *testing.T) {
	const nvars = 6
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		table := randTable(rng, nvars)
		n := buildFromTable(t, m, table, nvars)
		want := 0
		for _, v := range table {
			if v {
				want++
			}
		}
		if got := m.SatCount(n); got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("trial %d: SatCount got %s want %d", trial, got, want)
		}
		m.Deref(n)
	}
	if got := m.SatCount(True); got.Cmp(big.NewInt(1<<nvars)) != 0 {
		t.Fatalf("SatCount(True) = %s", got)
	}
	if got := m.SatCount(False); got.Sign() != 0 {
		t.Fatalf("SatCount(False) = %s", got)
	}
}

func TestSatCountIn(t *testing.T) {
	m := New(0, 0)
	m.AddVars(6)
	// Function over vars {1,3}: var1 OR var3.
	v1 := m.Var(1)
	v3 := m.Var(3)
	or := m.Or(v1, v3)
	got := m.SatCountIn(or, []int32{1, 3})
	if got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("SatCountIn = %s, want 3", got)
	}
	// Counting over a superset multiplies by the don't-cares.
	got = m.SatCountIn(or, []int32{0, 1, 3, 5})
	if got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("SatCountIn superset = %s, want 12", got)
	}
	for _, n := range []Node{v1, v3, or} {
		m.Deref(n)
	}
}

func TestAllSatEnumerates(t *testing.T) {
	const nvars = 5
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(7))
	vars := []int32{0, 1, 2, 3, 4}
	for trial := 0; trial < 20; trial++ {
		table := randTable(rng, nvars)
		n := buildFromTable(t, m, table, nvars)
		seen := make(map[int]bool)
		m.AllSat(n, vars, func(vals []bool) bool {
			row := 0
			for i, v := range vals {
				if v {
					row |= 1 << uint(i)
				}
			}
			if seen[row] {
				t.Fatalf("row %d enumerated twice", row)
			}
			seen[row] = true
			return true
		})
		for row, v := range table {
			if v != seen[row] {
				t.Fatalf("trial %d row %d: in table %v, enumerated %v", trial, row, v, seen[row])
			}
		}
		m.Deref(n)
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := New(0, 0)
	m.AddVars(4)
	calls := 0
	m.AllSat(True, []int32{0, 1, 2, 3}, func([]bool) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop: %d calls, want 3", calls)
	}
}

func TestSupport(t *testing.T) {
	m := New(0, 0)
	m.AddVars(5)
	v0 := m.Var(0)
	v3 := m.Var(3)
	x := m.Xor(v0, v3)
	sup := m.Support(x)
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 3 {
		t.Fatalf("Support = %v, want [0 3]", sup)
	}
	if s := m.Support(True); len(s) != 0 {
		t.Fatalf("Support(True) = %v", s)
	}
	for _, n := range []Node{v0, v3, x} {
		m.Deref(n)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	m := New(1<<12, 1<<8)
	m.AddVars(16)
	// Create lots of garbage.
	for i := 0; i < 200; i++ {
		a := m.Var(int32(i % 16))
		b := m.Var(int32((i + 7) % 16))
		c := m.Xor(a, b)
		m.Deref(a)
		m.Deref(b)
		m.Deref(c)
	}
	// One node kept alive.
	keep := func() Node {
		a := m.Var(2)
		b := m.Var(9)
		r := m.And(a, b)
		m.Deref(a)
		m.Deref(b)
		return r
	}()
	before := m.LiveNodes()
	live := m.GC()
	if live >= before {
		t.Fatalf("GC reclaimed nothing: %d -> %d", before, live)
	}
	// keep must still evaluate correctly after GC.
	a := make([]bool, 16)
	a[2], a[9] = true, true
	if !m.Eval(keep, a) {
		t.Fatal("kept node corrupted by GC")
	}
	a[9] = false
	if m.Eval(keep, a) {
		t.Fatal("kept node corrupted by GC")
	}
	m.Deref(keep)
}

func TestGCThenRebuildIsConsistent(t *testing.T) {
	m := New(1<<10, 1<<8)
	m.AddVars(8)
	v0 := m.Var(0)
	v1 := m.Var(1)
	x := m.And(v0, v1)
	m.GC()
	// Rebuilding the same function after GC must produce an equal node.
	y := m.And(v0, v1)
	if x != y {
		t.Fatalf("hash consing broken after GC: %d vs %d", x, y)
	}
	for _, n := range []Node{v0, v1, x, y} {
		m.Deref(n)
	}
}

func TestTableGrowth(t *testing.T) {
	m := New(1<<10, 1<<8) // tiny table; force growth
	m.AddVars(20)
	var nodes []Node
	for i := 0; i < 10; i++ {
		table := randTable(rand.New(rand.NewSource(int64(i))), 10)
		nodes = append(nodes, buildFromTable(t, m, table, 10))
	}
	if m.Stats().TableSize <= 1<<10 {
		t.Fatal("expected table growth")
	}
	// All nodes still valid.
	for _, n := range nodes {
		m.Eval(n, make([]bool, 20))
		m.Deref(n)
	}
}

func TestDerefPanicsWhenUnreferenced(t *testing.T) {
	m := New(0, 0)
	m.AddVars(1)
	v := m.Var(0)
	m.Deref(v)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Deref")
		}
	}()
	m.Deref(v)
}

func TestNodeCount(t *testing.T) {
	m := New(0, 0)
	m.AddVars(3)
	v0, v1, v2 := m.Var(0), m.Var(1), m.Var(2)
	ab := m.And(v0, v1)
	abc := m.And(ab, v2)
	if got := m.NodeCount(abc); got != 3 {
		t.Fatalf("NodeCount(x0∧x1∧x2) = %d, want 3", got)
	}
	if got := m.NodeCount(True); got != 0 {
		t.Fatalf("NodeCount(True) = %d", got)
	}
	for _, n := range []Node{v0, v1, v2, ab, abc} {
		m.Deref(n)
	}
}

func TestReplaceSwapsVariables(t *testing.T) {
	const nvars = 6
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		table := randTable(rng, nvars)
		n := buildFromTable(t, m, table, nvars)
		// Rename {0->3, 1->4, 2->5}; the source function must only
		// depend on 0..2 for the rename to be a clean move.
		lower := buildFromTable(t, m, expandTable(table, 3), 3)
		p := m.NewPair()
		p.Set(0, 3)
		p.Set(1, 4)
		p.Set(2, 5)
		moved := m.Replace(lower, p)
		for row := 0; row < 8; row++ {
			a := make([]bool, nvars)
			for i := 0; i < 3; i++ {
				a[3+i] = row&(1<<uint(i)) != 0
			}
			low3 := assignmentOf(row, 3)
			want := m.Eval(lower, append(low3, false, false, false))
			if got := m.Eval(moved, a); got != want {
				t.Fatalf("trial %d row %d: Replace mismatch", trial, row)
			}
		}
		m.Deref(n)
		m.Deref(lower)
		m.Deref(moved)
	}
}

// expandTable projects a table over nvars variables down to one over the
// first k variables by taking the row with the higher bits zero.
func expandTable(table []bool, k int) []bool {
	out := make([]bool, 1<<uint(k))
	for i := range out {
		out[i] = table[i]
	}
	return out
}

func TestReplaceReverseDirection(t *testing.T) {
	// Rename downward in the order (3,4,5 -> 0,1,2), exercising
	// correctify's push-down path.
	const nvars = 6
	m := New(0, 0)
	m.AddVars(nvars)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		table := randTable(rng, 3)
		// Build the function over variables 3,4,5.
		up := func() Node {
			p := m.NewPair()
			p.Set(0, 3)
			p.Set(1, 4)
			p.Set(2, 5)
			lower := buildFromTable(t, m, table, 3)
			r := m.Replace(lower, p)
			m.Deref(lower)
			return r
		}()
		p := m.NewPair()
		p.Set(3, 0)
		p.Set(4, 1)
		p.Set(5, 2)
		down := m.Replace(up, p)
		for row := 0; row < 8; row++ {
			a := make([]bool, nvars)
			for i := 0; i < 3; i++ {
				a[i] = row&(1<<uint(i)) != 0
			}
			if got := m.Eval(down, a); got != table[row] {
				t.Fatalf("trial %d row %d mismatch", trial, row)
			}
		}
		m.Deref(up)
		m.Deref(down)
	}
}

func TestReplaceSwap(t *testing.T) {
	// A true swap 0<->1 through Replace.
	m := New(0, 0)
	m.AddVars(2)
	v0 := m.Var(0)
	n1 := m.NVar(1)
	f := m.And(v0, n1) // x0 ∧ ¬x1
	p := m.NewPair()
	p.Set(0, 1)
	p.Set(1, 0)
	g := m.Replace(f, p) // x1 ∧ ¬x0
	cases := []struct {
		a    []bool
		want bool
	}{
		{[]bool{false, false}, false},
		{[]bool{true, false}, false},
		{[]bool{false, true}, true},
		{[]bool{true, true}, false},
	}
	for _, c := range cases {
		if got := m.Eval(g, c.a); got != c.want {
			t.Fatalf("swap eval %v = %v, want %v", c.a, got, c.want)
		}
	}
	for _, n := range []Node{v0, n1, f, g} {
		m.Deref(n)
	}
}

func TestPairValidation(t *testing.T) {
	m := New(0, 0)
	m.AddVars(4)
	p := m.NewPair()
	p.Set(0, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: level mapped twice")
			}
		}()
		p.Set(0, 3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: two levels to one destination")
			}
		}()
		p.Set(1, 2)
	}()
}

// TestPairInjectivityPanics pins the level-indexed pair's injectivity
// checks and their messages, including a destination beyond the levels
// that existed when the pair was made, and that a rejected Set leaves
// the pair usable.
func TestPairInjectivityPanics(t *testing.T) {
	m := New(0, 0)
	m.AddVars(4)
	p := m.NewPair()
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if got := recover(); got != want {
				t.Errorf("panic = %v, want %q", got, want)
			}
		}()
		fn()
	}
	p.Set(0, 2)
	p.Set(0, 2) // repeating a mapping is fine
	p.Set(3, 3) // identity is a no-op
	mustPanic("bdd: pair maps level 0 twice (2 and 3)", func() { p.Set(0, 3) })
	mustPanic("bdd: pair maps levels 0 and 1 to same destination 2", func() { p.Set(1, 2) })
	m.AddVars(2)
	p.Set(1, 5)
	mustPanic("bdd: pair maps levels 1 and 4 to same destination 5", func() { p.Set(4, 5) })
	mustPanic("bdd: pair maps negative level (-1 to 0)", func() { p.Set(-1, 0) })
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	// The surviving mapping {0->2, 1->5} renames x0 ∧ ¬x1 to x2 ∧ ¬x5.
	v0, n1 := m.Var(0), m.NVar(1)
	f := m.And(v0, n1)
	g := m.Replace(f, p)
	v2, n5 := m.Var(2), m.NVar(5)
	want := m.And(v2, n5)
	if g != want {
		t.Fatalf("Replace(x0∧¬x1) = %d, want x2∧¬x5 = %d", g, want)
	}
	for _, n := range []Node{v0, n1, f, g, v2, n5, want} {
		m.Deref(n)
	}
}

func TestPeakLiveTracking(t *testing.T) {
	m := New(1<<10, 1<<8)
	m.AddVars(12)
	table := randTable(rand.New(rand.NewSource(10)), 12)
	n := buildFromTable(t, m, table, 12)
	m.Deref(n)
	m.GC()
	if m.Stats().PeakLive < 10 {
		t.Fatalf("peak live not tracked: %+v", m.Stats())
	}
}
