package rel

import (
	"fmt"
	"math/rand"
	"testing"

	"bddbddb/internal/bdd"
)

// mintermRoot is the reference AddTuples must reproduce: the OR of one
// minterm per row, each minterm the AND of per-attribute Eq cubes.
// It shares no code with the bulk builder.
func mintermRoot(m *bdd.Manager, attrs []Attr, rows [][]uint64) bdd.Node {
	root := m.Ref(bdd.False)
	for _, row := range rows {
		cube := m.Ref(bdd.True)
		for i, a := range attrs {
			eq := a.Phys.Eq(row[i])
			next := m.And(cube, eq)
			m.Deref(cube)
			m.Deref(eq)
			cube = next
		}
		next := m.Or(root, cube)
		m.Deref(root)
		m.Deref(cube)
		root = next
	}
	return root
}

func TestAddTuplesMatchesAddTuple(t *testing.T) {
	// Multi-instance domains interleave bitwise in their block, and
	// C+HC interleaves two logical domains; attribute order below
	// deliberately differs from level order. wide spans 3·20+10+5 = 75
	// bits, past one 64-bit key word.
	u := NewUniverse()
	u.Declare("V", 1<<20-3)
	u.Declare("H", 1000)
	u.Declare("C", 23)
	u.Declare("HC", 17)
	u.EnsureInstances("V", 3)
	u.EnsureInstances("H", 2)
	u.EnsureInstances("C", 2)
	if err := u.Finalize(FinalizeOptions{Order: []string{"H", "C+HC", "V"}}); err != nil {
		t.Fatal(err)
	}
	schemas := map[string][]Attr{
		"narrow": {u.A("c", "C", 1), u.A("h", "H", 1), u.A("hc", "HC", 0)},
		"wide": {u.A("h", "H", 0), u.A("v2", "V", 2), u.A("c", "C", 0),
			u.A("v0", "V", 0), u.A("v1", "V", 1)},
	}
	width := func(attrs []Attr) int {
		n := 0
		for _, a := range attrs {
			n += len(a.Phys.Levels())
		}
		return n
	}
	if w := width(schemas["wide"]); w <= 64 {
		t.Fatalf("wide relation has %d bits, want > 64", w)
	}
	for _, name := range []string{"narrow", "wide"} {
		attrs := schemas[name]
		sizes := make([]uint64, len(attrs))
		for i, a := range attrs {
			sizes[i] = a.Dom.Size
		}
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// Small value ranges make duplicate rows likely; the top
				// value of each domain is always present.
				lim := make([]uint64, len(sizes))
				for i, s := range sizes {
					lim[i] = min(s, 3+uint64(rng.Intn(5)))
				}
				pre := randTuples(rng, rng.Intn(20), lim...)
				batch := randTuples(rng, 1+rng.Intn(60), lim...)
				top := make([]uint64, len(sizes))
				for i, s := range sizes {
					top[i] = s - 1
				}
				batch = append(batch, top, top)
				batch = append(batch, batch[:len(batch)/3]...)

				bulk := u.NewRelation("bulk", attrs...)
				bulk.AddTuples(pre)
				bulk.AddTuples(nil)
				bulk.AddTuples(batch)
				bulk.AddTuples([][]uint64{})
				one := u.NewRelation("one", attrs...)
				for _, row := range append(append([][]uint64(nil), pre...), batch...) {
					one.AddTuple(row...)
				}
				want := tupleKeySet(pre)
				for k := range tupleKeySet(batch) {
					want[k] = true
				}
				checkRel(t, "AddTuples", bulk, want)
				checkRel(t, "AddTuple", one, want)
				ref := mintermRoot(u.M, attrs, append(append([][]uint64(nil), pre...), batch...))
				if bulk.Root() != ref || one.Root() != ref {
					t.Errorf("roots differ from the minterm OR: bulk %d, one-by-one %d, reference %d",
						bulk.Root(), one.Root(), ref)
				}
				u.M.Deref(ref)
				bulk.Free()
				one.Free()
			})
		}
	}

	// Validation panics, with the messages AddTuple always gave, and
	// nothing inserted from a batch with one bad row.
	r := u.NewRelation("r", schemas["narrow"]...)
	mustPanicWith := func(want string, rows [][]uint64) {
		t.Helper()
		defer func() {
			if got := recover(); got != want {
				t.Errorf("panic = %v, want %q", got, want)
			}
		}()
		r.AddTuples(rows)
	}
	mustPanicWith("rel: value 1000 exceeds domain H (size 1000) in r.h",
		[][]uint64{{0, 0, 0}, {1, 1000, 1}})
	mustPanicWith("rel: AddTuple([1 2]) into r(c,h,hc)", [][]uint64{{1, 2}})
	if !r.IsEmpty() {
		t.Errorf("rejected batch inserted %v tuples", r.Size())
	}
	func() {
		defer func() {
			if got := recover(); got != "rel: value 23 exceeds domain C (size 23) in r.c" {
				t.Errorf("AddTuple panic = %v", got)
			}
		}()
		r.AddTuple(23, 0, 0)
	}()
}
