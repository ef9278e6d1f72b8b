package rel

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"bddbddb/internal/bdd"
)

// Attr binds an attribute name to a logical domain and the physical
// instance holding its bits.
type Attr struct {
	Name string
	Dom  *LogicalDomain
	Phys *bdd.Domain
}

// A returns an attribute of the named logical domain bound to physical
// instance inst.
func (u *Universe) A(attrName, domName string, inst int) Attr {
	d := u.logical[domName]
	if d == nil {
		panic(fmt.Sprintf("rel: unknown domain %q", domName))
	}
	return Attr{Name: attrName, Dom: d, Phys: u.Phys(domName, inst)}
}

// Relation is a set of tuples over named attributes, stored as one
// referenced BDD root over the attributes' physical domains. A
// per-universe modification stamp identifies each content state, so
// caches can revalidate a relation with one comparison (see Stamp).
// All deriving operations keep their result's root referenced; call
// Free when a relation is no longer needed.
type Relation struct {
	u      *Universe
	Name   string
	attrs  []Attr
	root   bdd.Node
	frozen bool

	// stamp is bumped (from the universe's monotone counter) on every
	// content mutation; (pointer, stamp) identifies a relation state.
	stamp uint64
	// support caches supportVars(): the sorted BDD levels of all
	// attributes. Attrs never change after construction.
	support []int32
}

func newRel(u *Universe, name string, attrs []Attr, root bdd.Node) *Relation {
	return &Relation{u: u, Name: name, attrs: attrs, root: root, stamp: u.nextStamp()}
}

// derive wraps a freshly referenced root over r's schema.
func (r *Relation) derive(name string, root bdd.Node) *Relation {
	c := newRel(r.u, name, append([]Attr(nil), r.attrs...), root)
	c.support = r.support
	return c
}

// NewRelation creates an empty relation. Attribute names must be unique
// and no two attributes may share a physical domain.
func (u *Universe) NewRelation(name string, attrs ...Attr) *Relation {
	if !u.final {
		panic("rel: NewRelation before Finalize")
	}
	checkAttrs(name, attrs)
	return newRel(u, name, append([]Attr(nil), attrs...), u.M.Ref(bdd.False))
}

// NewRelationFromBDD wraps an already-referenced BDD node as a relation;
// the relation takes ownership of the caller's reference.
func (u *Universe) NewRelationFromBDD(name string, root bdd.Node, attrs ...Attr) *Relation {
	checkAttrs(name, attrs)
	return newRel(u, name, append([]Attr(nil), attrs...), root)
}

func checkAttrs(name string, attrs []Attr) {
	seenName := make(map[string]bool)
	seenPhys := make(map[*bdd.Domain]string)
	for _, a := range attrs {
		if a.Phys == nil || a.Dom == nil {
			panic(fmt.Sprintf("rel: relation %s has incomplete attribute %q", name, a.Name))
		}
		if seenName[a.Name] {
			panic(fmt.Sprintf("rel: relation %s repeats attribute %q", name, a.Name))
		}
		seenName[a.Name] = true
		if prev, ok := seenPhys[a.Phys]; ok {
			panic(fmt.Sprintf("rel: relation %s binds attributes %q and %q to one physical domain %s",
				name, prev, a.Name, a.Phys.Name))
		}
		seenPhys[a.Phys] = a.Name
	}
}

// Attrs returns the relation's attributes.
func (r *Relation) Attrs() []Attr { return r.attrs }

// Attr returns the attribute with the given name.
func (r *Relation) Attr(name string) Attr {
	for _, a := range r.attrs {
		if a.Name == name {
			return a
		}
	}
	panic(fmt.Sprintf("rel: relation %s has no attribute %q (has %s)", r.Name, name, r.attrNames()))
}

// HasAttr reports whether the relation has an attribute with the name.
func (r *Relation) HasAttr(name string) bool {
	return attrIndex(r.attrs, name) >= 0
}

func attrIndex(attrs []Attr, name string) int {
	for i, a := range attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func (r *Relation) attrNames() string {
	names := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// Stamp returns the relation's modification stamp. Stamps come from a
// per-universe monotone counter: a (relation pointer, stamp) pair seen
// equal later proves the content is unchanged, because every mutation
// bumps the stamp and counters are never reused.
func (r *Relation) Stamp() uint64 { return r.stamp }

func (r *Relation) touch() { r.stamp = r.u.nextStamp() }

// Root exposes the underlying BDD node (still owned by the relation).
func (r *Relation) Root() bdd.Node { return r.root }

// Freeze marks the relation immutable: AddTuple, UnionWith, and Free
// panic afterwards. Deriving operations (Join, SelectEq, ...) stay
// legal — they allocate new relations and never touch the receiver.
// The serving layer freezes solved relations before handing them to
// concurrent query evaluation; there is no Unfreeze.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether Freeze was called.
func (r *Relation) Frozen() bool { return r.frozen }

func (r *Relation) requireMutable(op string) {
	if r.frozen {
		panic(fmt.Sprintf("rel: %s on frozen relation %s", op, r.Name))
	}
}

// Free releases the relation's BDD reference. The relation must not be
// used afterwards.
func (r *Relation) Free() {
	r.requireMutable("Free")
	r.u.M.Deref(r.root)
	r.root = bdd.False
	r.attrs = nil
	r.support = nil
}

// Clone returns an independent copy sharing the same tuples.
func (r *Relation) Clone(name string) *Relation {
	return r.derive(name, r.u.M.Ref(r.root))
}

// AddTuple inserts one tuple, with values listed in attribute order.
func (r *Relation) AddTuple(vals ...uint64) {
	r.AddTuples([][]uint64{vals})
}

// AddTuples inserts a batch of tuples, each with values listed in
// attribute order. The batch's BDD is built in one bottom-up pass
// (bdd.FromRows) and ORed into the relation once; duplicates, within
// the batch or against tuples already present, are fine. Every row is
// validated before anything is inserted.
func (r *Relation) AddTuples(rows [][]uint64) {
	r.requireMutable("AddTuple")
	if len(rows) == 0 {
		return
	}
	doms := make([]*bdd.Domain, len(r.attrs))
	for i, a := range r.attrs {
		doms[i] = a.Phys
	}
	for _, vals := range rows {
		if len(vals) != len(r.attrs) {
			panic(fmt.Sprintf("rel: AddTuple(%v) into %s(%s)", vals, r.Name, r.attrNames()))
		}
		for i, a := range r.attrs {
			if vals[i] >= a.Dom.Size {
				panic(fmt.Sprintf("rel: value %d exceeds domain %s (size %d) in %s.%s",
					vals[i], a.Dom.Name, a.Dom.Size, r.Name, a.Name))
			}
		}
	}
	m := r.u.M
	batch := m.FromRows(doms, rows)
	next := m.Or(r.root, batch)
	m.Deref(r.root)
	m.Deref(batch)
	r.root = next
	r.touch()
}

func (r *Relation) sameSchema(o *Relation) bool {
	if len(r.attrs) != len(o.attrs) {
		return false
	}
	for _, a := range r.attrs {
		j := attrIndex(o.attrs, a.Name)
		if j < 0 || o.attrs[j].Phys != a.Phys {
			return false
		}
	}
	return true
}

func (r *Relation) requireSameSchema(o *Relation, op string) {
	if !r.sameSchema(o) {
		panic(fmt.Sprintf("rel: %s of %s(%s) and %s(%s): schemas differ",
			op, r.Name, r.attrNames(), o.Name, o.attrNames()))
	}
}

// UnionWith adds all of o's tuples to r in place and reports whether r
// changed.
func (r *Relation) UnionWith(o *Relation) bool {
	r.requireMutable("UnionWith")
	r.requireSameSchema(o, "union")
	m := r.u.M
	next := m.Or(r.root, o.root)
	changed := next != r.root
	m.Deref(r.root)
	r.root = next
	if changed {
		r.touch()
	}
	return changed
}

// Union returns a new relation with the tuples of both operands.
func (r *Relation) Union(name string, o *Relation) *Relation {
	r.requireSameSchema(o, "union")
	return r.derive(name, r.u.M.Or(r.root, o.root))
}

// Minus returns the tuples of r that are not in o.
func (r *Relation) Minus(name string, o *Relation) *Relation {
	r.requireSameSchema(o, "difference")
	return r.derive(name, r.u.M.Diff(r.root, o.root))
}

// joinAttrs computes the result schema of a natural join and validates
// physical alignment: shared attribute names must share a physical
// domain; attributes private to one side must not collide physically.
func joinAttrs(a, b *Relation, op string) (shared []string, result []Attr) {
	result = append(result, a.attrs...)
	for _, battr := range b.attrs {
		if a.HasAttr(battr.Name) {
			aattr := a.Attr(battr.Name)
			if aattr.Phys != battr.Phys {
				panic(fmt.Sprintf("rel: %s of %s and %s: attribute %q on %s vs %s (rename first)",
					op, a.Name, b.Name, battr.Name, aattr.Phys.Name, battr.Phys.Name))
			}
			shared = append(shared, battr.Name)
			continue
		}
		for _, aattr := range a.attrs {
			if aattr.Phys == battr.Phys {
				panic(fmt.Sprintf("rel: %s of %s and %s: attributes %q and %q collide on %s",
					op, a.Name, b.Name, aattr.Name, battr.Name, battr.Phys.Name))
			}
		}
		result = append(result, battr)
	}
	return shared, result
}

// Join returns the natural join of r and o on their shared attribute
// names (a BDD AND once aligned).
func (r *Relation) Join(name string, o *Relation) *Relation {
	return r.JoinProject(name, o)
}

// JoinProject joins r and o and projects away the named attributes in
// one BDD relprod (AndExist) pass — the workhorse of rule application.
func (r *Relation) JoinProject(name string, o *Relation, drop ...string) *Relation {
	_, attrs := joinAttrs(r, o, "join")
	for _, d := range drop {
		if attrIndex(attrs, d) < 0 {
			panic(fmt.Sprintf("rel: JoinProject drops unknown attribute %q", d))
		}
	}
	keep, dropLevels := splitDropped(attrs, drop)
	m := r.u.M
	if len(dropLevels) == 0 {
		return newRel(r.u, name, keep, m.And(r.root, o.root))
	}
	vs := m.MakeSet(dropLevels)
	root := m.AndExist(r.root, o.root, vs)
	m.Deref(vs)
	return newRel(r.u, name, keep, root)
}

// splitDropped partitions attrs into the ones kept and the BDD levels
// of the ones named in drop.
func splitDropped(attrs []Attr, drop []string) (keep []Attr, dropLevels []int32) {
	for _, a := range attrs {
		dropped := false
		for _, d := range drop {
			if a.Name == d {
				dropped = true
				break
			}
		}
		if dropped {
			dropLevels = append(dropLevels, a.Phys.Levels()...)
		} else {
			keep = append(keep, a)
		}
	}
	return keep, dropLevels
}

// ProjectOut removes the named attributes (existential quantification).
func (r *Relation) ProjectOut(name string, drop ...string) *Relation {
	for _, d := range drop {
		if !r.HasAttr(d) {
			panic(fmt.Sprintf("rel: ProjectOut of unknown attribute %q from %s", d, r.Name))
		}
	}
	keep, dropLevels := splitDropped(r.attrs, drop)
	m := r.u.M
	vs := m.MakeSet(dropLevels)
	root := m.Exist(r.root, vs)
	m.Deref(vs)
	return newRel(r.u, name, keep, root)
}

// Rename returns r with some attributes rebound to different physical
// instances (one BDD replace). The map keys are attribute names.
func (r *Relation) Rename(name string, moves map[string]*bdd.Domain) *Relation {
	spec := make(map[string]Remap, len(moves))
	for n, to := range moves {
		spec[n] = Remap{NewPhys: to}
	}
	return r.remap(name, spec, "Rename")
}

// RenameAttr returns r with one attribute renamed (metadata only; the
// tuples and physical binding are unchanged).
func (r *Relation) RenameAttr(name, oldAttr, newAttr string) *Relation {
	attrs := append([]Attr(nil), r.attrs...)
	found := false
	for i := range attrs {
		if attrs[i].Name == oldAttr {
			attrs[i].Name = newAttr
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("rel: RenameAttr of unknown attribute %q in %s", oldAttr, r.Name))
	}
	checkAttrs(name, attrs)
	c := newRel(r.u, name, attrs, r.u.M.Ref(r.root))
	c.support = r.support
	return c
}

// SelectEq returns the tuples whose attribute equals val (attribute
// retained; ProjectOut to drop it).
func (r *Relation) SelectEq(name, attr string, val uint64) *Relation {
	i := attrIndex(r.attrs, attr)
	if i < 0 {
		panic(fmt.Sprintf("rel: relation %s has no attribute %q (has %s)", r.Name, attr, r.attrNames()))
	}
	a := r.attrs[i]
	if val >= a.Dom.Size {
		panic(fmt.Sprintf("rel: SelectEq value %d outside domain %s", val, a.Dom.Name))
	}
	m := r.u.M
	eq := a.Phys.Eq(val)
	root := m.And(r.root, eq)
	m.Deref(eq)
	return r.derive(name, root)
}

// Complement returns the tuples over the attributes' domains that are
// NOT in r — negation relative to the finite universe of the schema,
// used by stratified Datalog negation.
func (r *Relation) Complement(name string) *Relation {
	m := r.u.M
	root := m.Not(r.root)
	for _, a := range r.attrs {
		c := a.Phys.DomainConstraint()
		next := m.And(root, c)
		m.Deref(root)
		m.Deref(c)
		root = next
	}
	return r.derive(name, root)
}

// SameSchemaAs reports whether both relations bind the same attribute
// names to the same physical domains (tuple order notwithstanding).
func (r *Relation) SameSchemaAs(o *Relation) bool { return r.sameSchema(o) }

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return r.root == bdd.False }

// SameTuples reports whether two relations over the same schema hold
// exactly the same tuples (constant time: BDDs are canonical).
func (r *Relation) SameTuples(o *Relation) bool {
	r.requireSameSchema(o, "comparison")
	return r.root == o.root
}

// Size returns the exact tuple count.
func (r *Relation) Size() *big.Int {
	if len(r.attrs) == 0 {
		if r.root == bdd.True {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	return r.u.M.SatCountIn(r.root, r.supportVars())
}

// SizeFloat returns the tuple count as a float64 — the lossy form the
// Datalog planner's cost model consumes. Use Size for exact counts.
func (r *Relation) SizeFloat() float64 {
	f, _ := new(big.Float).SetInt(r.Size()).Float64()
	return f
}

func (r *Relation) supportVars() []int32 {
	if r.support == nil {
		var vars []int32
		for _, a := range r.attrs {
			vars = append(vars, a.Phys.Levels()...)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		r.support = vars
	}
	return r.support
}

// Iterate calls fn for every tuple (values in attribute order) until it
// returns false. Enumeration follows the BDD variable order, so it is
// deterministic for a given universe.
func (r *Relation) Iterate(fn func(vals []uint64) bool) {
	if len(r.attrs) == 0 {
		if r.root == bdd.True {
			fn(nil)
		}
		return
	}
	support := r.supportVars()
	vals := make([]uint64, len(r.attrs))
	r.u.M.AllSat(r.root, support, func(bits []bool) bool {
		for i, a := range r.attrs {
			vals[i] = a.Phys.Value(support, bits)
		}
		return fn(vals)
	})
}

// Tuples materializes the relation as a slice (tests and small outputs
// only; context-sensitive relations can hold 10^14 tuples).
func (r *Relation) Tuples() [][]uint64 {
	var out [][]uint64
	r.Iterate(func(vals []uint64) bool {
		out = append(out, append([]uint64(nil), vals...))
		return true
	})
	// Iterate yields BDD variable order, which depends on the physical
	// bindings; sort so dumps and APIs read identically whatever the
	// variable order.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// String renders the schema, for diagnostics.
func (r *Relation) String() string {
	parts := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		parts[i] = fmt.Sprintf("%s:%s@%s", a.Name, a.Dom.Name, a.Phys.Name)
	}
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(parts, ","))
}
