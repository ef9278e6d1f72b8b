package rel

import (
	"fmt"

	"bddbddb/internal/bdd"
)

// Remap describes the new identity of one attribute in Reshape.
type Remap struct {
	NewName string
	NewPhys *bdd.Domain // nil keeps the current physical binding
}

// Reshape renames and physically rebinds several attributes in one BDD
// replace pass. Keys of spec are current attribute names; attributes
// not mentioned are unchanged. The combined physical move must be
// injective.
func (r *Relation) Reshape(name string, spec map[string]Remap) *Relation {
	return r.remap(name, spec, "Reshape")
}

// remap is the body of Reshape and Rename; op names the caller in
// panics.
func (r *Relation) remap(name string, spec map[string]Remap, op string) *Relation {
	for n := range spec {
		if !r.HasAttr(n) {
			panic(fmt.Sprintf("rel: %s of unknown attribute %q in %s", op, n, r.Name))
		}
	}
	m := r.u.M
	attrs := append([]Attr(nil), r.attrs...)
	var p *bdd.Pair
	for i := range attrs {
		mv, ok := spec[attrs[i].Name]
		if !ok {
			continue
		}
		if mv.NewPhys != nil && mv.NewPhys != attrs[i].Phys {
			if p == nil {
				p = m.NewPair()
			}
			p.SetDomains(attrs[i].Phys, mv.NewPhys)
			attrs[i].Phys = mv.NewPhys
		}
		if mv.NewName != "" {
			attrs[i].Name = mv.NewName
		}
	}
	checkAttrs(name, attrs)
	if p == nil {
		return newRel(r.u, name, attrs, m.Ref(r.root))
	}
	return newRel(r.u, name, attrs, m.Replace(r.root, p))
}

// SelectEqualAttrs keeps the tuples where two same-domain attributes are
// equal. The attributes' physical instances must be interleaved in the
// variable order (instances of one logical domain always are).
func (r *Relation) SelectEqualAttrs(name, attr1, attr2 string) *Relation {
	a1, a2 := r.Attr(attr1), r.Attr(attr2)
	if a1.Dom != a2.Dom {
		panic(fmt.Sprintf("rel: SelectEqualAttrs across domains %s and %s", a1.Dom.Name, a2.Dom.Name))
	}
	m := r.u.M
	eq, err := m.Equals(a1.Phys, a2.Phys)
	if err != nil {
		panic(fmt.Sprintf("rel: SelectEqualAttrs(%s,%s): %v", a1.Phys.Name, a2.Phys.Name, err))
	}
	root := m.And(r.root, eq)
	m.Deref(eq)
	return r.derive(name, root)
}

// FullDomain returns the unary relation holding every element of the
// attribute's domain — used to bind otherwise-unconstrained variables.
func (u *Universe) FullDomain(name string, attr Attr) *Relation {
	root := attr.Phys.DomainConstraint()
	return newRel(u, name, []Attr{attr}, root)
}

// Singleton returns the unary relation {val} over the attribute.
func (u *Universe) Singleton(name string, attr Attr, val uint64) *Relation {
	if val >= attr.Dom.Size {
		panic(fmt.Sprintf("rel: singleton %d outside domain %s", val, attr.Dom.Name))
	}
	root := attr.Phys.Eq(val)
	return newRel(u, name, []Attr{attr}, root)
}
