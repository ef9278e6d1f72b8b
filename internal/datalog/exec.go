package datalog

import (
	"fmt"

	"bddbddb/internal/datalog/plan"
	"bddbddb/internal/rel"
)

// execPlan interprets one plan variant: literal pipelines feed
// JoinProject steps in the plan's join order, then the head ops build
// the result in the head relation's schema. The caller owns the
// result. delta is the relation the variant's delta literal reads
// (nil for the base variant).
//
// Ownership: evalLit may return a borrowed relation — the stored
// source itself (trivial pipeline) or a cached normalized form
// (hoisting) — flagged owned=false; borrowed relations are never
// freed here, and a still-borrowed final accumulator is cloned (a
// reference bump) so the caller's Free stays safe.
func (s *Solver) execPlan(cr *compiledRule, p *plan.Plan, delta *rel.Relation) *rel.Relation {
	var acc *rel.Relation
	accOwned := false
	for k, idx := range p.Order {
		cur, curOwned := s.evalLit(cr, p, idx, delta)
		jp := p.Joins[k]
		s.countOp(jp)
		opStart := s.u.M.ProducedNodes()
		if s.tr != nil {
			s.tr.Begin("op.JoinProject")
		}
		if acc == nil {
			if len(jp.Drop) > 0 {
				next := cur.ProjectOut("acc", jp.Drop...)
				if curOwned {
					cur.Free()
				}
				acc, accOwned = next, true
			} else {
				acc, accOwned = cur, curOwned
			}
		} else {
			next := acc.JoinProject("acc", cur, jp.Drop...)
			if accOwned {
				acc.Free()
			}
			if curOwned {
				cur.Free()
			}
			acc, accOwned = next, true
		}
		s.hOpNodes.Observe(float64(s.u.M.ProducedNodes() - opStart))
		if s.tr != nil {
			s.tr.End()
		}
		if acc.IsEmpty() {
			// Everything downstream is a join; empty stays empty.
			if accOwned {
				acc.Free()
			}
			return s.u.NewRelation("res:"+p.Head, p.HeadSchema...)
		}
	}
	for _, o := range p.HeadOps {
		s.countOp(o)
		opStart := s.u.M.ProducedNodes()
		if s.tr != nil {
			s.tr.Begin("op." + o.Kind())
		}
		var next *rel.Relation
		switch o := o.(type) {
		case *plan.BindFull:
			next = acc.Join("acc", cr.full[o.Attr.Name])
		case *plan.Reshape:
			s.countMoves(acc, o.Spec)
			next = acc.Reshape("acc", o.Spec)
		case *plan.DupHead:
			next = acc.Join("acc", cr.dups[o.NewAttr.Name])
		case *plan.ConstHead:
			next = acc.Join("acc", cr.singles[o.Attr.Name])
		default:
			panic(fmt.Sprintf("datalog: unexpected head op %T in %s", o, cr.rule))
		}
		s.hOpNodes.Observe(float64(s.u.M.ProducedNodes() - opStart))
		if s.tr != nil {
			s.tr.End()
		}
		if accOwned {
			acc.Free()
		}
		acc, accOwned = next, true
	}
	if !accOwned {
		acc = acc.Clone("res:" + p.Head)
	}
	return acc
}

// evalLit produces the normalized relation for the literal at
// canonical position idx. The second result reports ownership: false
// means the relation is borrowed (the stored source or a cache entry)
// and must not be freed by the caller.
//
// Non-delta literals with real normalization work are hoisted: the
// result is cached per compiled rule and revalidated by the source
// relation's (pointer, modification stamp) pair — see litCache. Within
// a stratum the sources of non-recursive literals never change, so the
// fixpoint loop pays for normalization once instead of every
// iteration.
func (s *Solver) evalLit(cr *compiledRule, p *plan.Plan, idx int, delta *rel.Relation) (*rel.Relation, bool) {
	l := &p.Lits[idx]
	src := s.rels[l.Pred]
	if l.Delta() {
		src = delta
	}
	s.countOp(l.Ops[0])
	if l.Trivial() {
		// No normalization needed: reference the source without copying.
		return src, false
	}
	if l.Delta() {
		return s.runPipeline(l, src), true
	}
	c := cr.cache[idx]
	if c.norm != nil && c.src == src && c.stamp == src.Stamp() {
		s.cHoistHits.Inc()
		return c.norm, false
	}
	s.cHoistMisses.Inc()
	norm := s.runPipeline(l, src)
	c.clear(s.u.M)
	*c = litCache{src: src, stamp: src.Stamp(), norm: norm, lit: l}
	return norm, false
}

// runPipeline applies a literal's normalization ops (everything after
// the Load) to src, which it borrows. The caller owns the result.
func (s *Solver) runPipeline(l *plan.Lit, src *rel.Relation) *rel.Relation {
	name := "lit:" + l.Pred
	cur, owned := src, false
	for _, o := range l.Ops[1:] {
		s.countOp(o)
		opStart := s.u.M.ProducedNodes()
		if s.tr != nil {
			s.tr.Begin("op." + o.Kind())
		}
		var next *rel.Relation
		switch o := o.(type) {
		case *plan.SelectConst:
			next = cur.SelectEq(name, o.Attr, o.Val)
		case *plan.EquateAttrs:
			next = cur.SelectEqualAttrs(name, o.A, o.B)
		case *plan.Project:
			next = cur.ProjectOut(name, o.Drop...)
		case *plan.Reshape:
			s.countMoves(cur, o.Spec)
			next = cur.Reshape(name, o.Spec)
		case *plan.Complement:
			next = cur.Complement("¬" + l.Pred)
		default:
			panic(fmt.Sprintf("datalog: unexpected literal op %T for %s", o, l.Pred))
		}
		s.hOpNodes.Observe(float64(s.u.M.ProducedNodes() - opStart))
		if s.tr != nil {
			s.tr.End()
		}
		if owned {
			cur.Free()
		}
		cur, owned = next, true
	}
	return cur
}

// countMoves bumps datalog.op.reshape_moves when a Reshape of in
// rebinds an attribute to another physical domain — a bdd.Replace —
// rather than only renaming it.
func (s *Solver) countMoves(in *rel.Relation, spec map[string]rel.Remap) {
	for name, mv := range spec {
		if mv.NewPhys != nil && mv.NewPhys != in.Attr(name).Phys {
			s.cReshapeMoves.Inc()
			return
		}
	}
}

// countOp bumps the op's datalog.op.* counter.
func (s *Solver) countOp(o plan.Op) {
	if c := s.opCounters[o.Kind()]; c != nil {
		c.Inc()
	}
}
