package plan

import (
	"sort"

	"bddbddb/internal/rel"
)

// Config switches individual planner passes off, mainly for the
// differential tests that prove the optimizer changes nothing but
// speed. The zero value enables every pass.
type Config struct {
	// NoReorder keeps the canonical literal order (positives in textual
	// order, then negatives) instead of the delta-first, cross-product
	// deferring order chosen by the planner.
	NoReorder bool
	// NoPushdown drops all non-head variables at the final join instead
	// of at each variable's last use.
	NoPushdown bool
	// NoHoist disables the per-stratum cache of normalized non-delta
	// literals (an interpreter-side pass; carried here so one value
	// configures the whole pipeline).
	NoHoist bool
	// NoDeadOps keeps identity Reshape entries and other no-op work.
	NoDeadOps bool
}

// Legacy is the pinned pre-refactor execution path: textual order, no
// hoisting, no dead-op pruning — but early projection, which the old
// executor's dropAfter already performed.
func Legacy() Config { return Config{NoReorder: true, NoHoist: true, NoDeadOps: true} }

// Finish completes a freshly lowered plan in place: identity join
// order plus last-use projection sets. The result reproduces the
// historical textual-order execution exactly.
func Finish(p *Plan) {
	p.Order = make([]int, len(p.Lits))
	for i := range p.Order {
		p.Order[i] = i
	}
	p.Joins = joinsFor(p, p.Order, false)
	retypeHead(p)
}

// Optimize returns a rewritten copy of the plan (the input is never
// mutated): join-order selection (see chooseOrder) fed by live
// relation cardinalities, projection push-down for the chosen order,
// and dead-op elimination. card may be nil (all relations cost 0).
func Optimize(p *Plan, cfg Config, card func(pred string) float64) *Plan {
	q := *p
	q.Optimized = true
	q.Order = chooseOrder(p, cfg, card)
	q.Joins = joinsFor(&q, q.Order, cfg.NoPushdown)
	retypeHead(&q)
	if !cfg.NoDeadOps {
		pruneDeadOps(&q)
	}
	return &q
}

// chooseOrder picks the join order. The delta literal, when present,
// goes first (it is usually the smallest relation and every product
// with it stays small — the heuristic the paper's incrementalized
// rules rely on); otherwise the rule's first positive literal stays
// first. The remaining positive literals keep their textual order
// among themselves, except that a literal sharing no variable with the
// already-bound set is deferred until one connects — cross products
// are never formed while a connected join is available. When every
// remaining literal is unconnected a cross product is unavoidable and
// the cheapest literal by live cardinality goes next. Negated literals
// always run last, where their complements meet the smallest
// accumulator.
//
// Cardinality deliberately does NOT rank connected candidates. BDD
// operation cost tracks node structure, not satcounts: a join that is
// cheap in tuples can be catastrophic as a BDD — e.g. formal(m,z,v1) ⋈
// actual(i,z,v2) on the tiny parameter-index domain builds an
// unstructured v1↔v2 pairing whose BDD dwarfs the textual IEC-first
// pipeline, even though its estimated tuple count is far smaller.
// Measured across the synthetic context-sensitive workloads,
// cardinality-greedy orders lost to the rule author's order every
// time; deferring cross products and rotating the delta first are the
// rewrites that survive contact with the node counts.
//
// For the unavoidable-cross-product pick, empty relations cost their
// schema's full domain product, not zero: stratum-local recursive
// relations have no tuples when the stratum is planned, and a
// momentary zero satcount must not schedule them ahead of populated
// inputs.
func chooseOrder(p *Plan, cfg Config, card func(pred string) float64) []int {
	n := len(p.Lits)
	order := make([]int, 0, n)
	if cfg.NoReorder {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	chosen := make([]bool, n)
	bound := map[string]bool{}
	take := func(i int) {
		chosen[i] = true
		order = append(order, i)
		for _, a := range p.Lits[i].Schema() {
			bound[a.Name] = true
		}
	}
	if p.DeltaPos >= 0 {
		take(p.DeltaPos)
	} else {
		for i := 0; i < n; i++ {
			if !p.Lits[i].Negated {
				take(i)
				break
			}
		}
	}
	cost := func(i int) float64 {
		if card != nil {
			if live := card(p.Lits[i].Pred); live > 0 {
				return live
			}
		}
		u := 1.0
		for _, a := range p.Lits[i].Schema() {
			u *= float64(a.Dom.Size)
		}
		return u
	}
	connected := func(i int) bool {
		for _, a := range p.Lits[i].Schema() {
			if bound[a.Name] {
				return true
			}
		}
		return false
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			if !chosen[i] && !p.Lits[i].Negated && len(bound) > 0 && connected(i) {
				best = i
				break
			}
		}
		if best < 0 {
			bestCost := 0.0
			for i := 0; i < n; i++ {
				if chosen[i] || p.Lits[i].Negated {
					continue
				}
				if c := cost(i); best < 0 || c < bestCost {
					best, bestCost = i, c
				}
			}
		}
		if best < 0 {
			break
		}
		take(best)
	}
	for i := 0; i < n; i++ {
		if p.Lits[i].Negated {
			order = append(order, i)
		}
	}
	return order
}

// joinsFor computes the per-step JoinProject ops for an order:
// variables not needed by the head are projected away inside the
// relprod at the step of their last use (or all at the final step when
// push-down is disabled), and each step's output schema is threaded
// through for the explain output.
func joinsFor(p *Plan, order []int, noPushdown bool) []*JoinProject {
	keep := map[string]bool{}
	for _, v := range p.Keep {
		keep[v] = true
	}
	last := map[string]int{}
	for k, idx := range order {
		for _, a := range p.Lits[idx].Schema() {
			if !keep[a.Name] {
				if noPushdown {
					last[a.Name] = len(order) - 1
				} else {
					last[a.Name] = k
				}
			}
		}
	}
	joins := make([]*JoinProject, len(order))
	var acc []rel.Attr
	for k, idx := range order {
		acc = mergeSchema(acc, p.Lits[idx].Schema())
		var drop []string
		for v, at := range last {
			if at == k {
				drop = append(drop, v)
			}
		}
		sort.Strings(drop)
		acc = removeAttrs(acc, drop)
		joins[k] = &JoinProject{Drop: drop, Out: acc}
	}
	return joins
}

// mergeSchema appends b's attributes not already present by name
// (natural-join schema, mirroring rel.joinAttrs).
func mergeSchema(a, b []rel.Attr) []rel.Attr {
	out := append([]rel.Attr(nil), a...)
	for _, battr := range b {
		found := false
		for _, aattr := range a {
			if aattr.Name == battr.Name {
				found = true
				break
			}
		}
		if !found {
			out = append(out, battr)
		}
	}
	return out
}

func removeAttrs(s []rel.Attr, drop []string) []rel.Attr {
	if len(drop) == 0 {
		return s
	}
	out := make([]rel.Attr, 0, len(s))
	for _, a := range s {
		dropped := false
		for _, d := range drop {
			if a.Name == d {
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, a)
		}
	}
	return out
}

// retypeHead recomputes the head ops' output schemas from the final
// join's schema — attribute order there depends on the join order.
func retypeHead(p *Plan) {
	in := p.HeadSchema
	if len(p.Joins) > 0 {
		in = p.Joins[len(p.Joins)-1].Out
	}
	ops := make([]Op, len(p.HeadOps))
	for i, o := range p.HeadOps {
		switch o := o.(type) {
		case *BindFull:
			in = append(append([]rel.Attr(nil), in...), o.Attr)
			ops[i] = &BindFull{Attr: o.Attr, Out: in}
		case *Reshape:
			next := make([]rel.Attr, len(in))
			copy(next, in)
			for j := range next {
				if mv, ok := o.Spec[next[j].Name]; ok {
					if mv.NewPhys != nil {
						next[j].Phys = mv.NewPhys
					}
					if mv.NewName != "" {
						next[j].Name = mv.NewName
					}
				}
			}
			in = next
			ops[i] = &Reshape{Spec: o.Spec, Out: in}
		case *DupHead:
			in = append(append([]rel.Attr(nil), in...), o.NewAttr)
			ops[i] = &DupHead{JoinAttr: o.JoinAttr, NewAttr: o.NewAttr, Out: in}
		case *ConstHead:
			in = append(append([]rel.Attr(nil), in...), o.Attr)
			ops[i] = &ConstHead{Attr: o.Attr, Val: o.Val, Out: in}
		default:
			ops[i] = o
		}
	}
	p.HeadOps = ops
}

// pruneDeadOps removes work that provably does nothing: Reshape
// entries renaming an attribute to itself on its current physical
// instance, Reshape/Project ops left empty, and their head-side
// counterparts. Lowering deliberately emits such identity moves so the
// pinned legacy configuration reproduces the historical executor
// byte-for-byte; the optimizer strips them.
func pruneDeadOps(p *Plan) {
	lits := make([]Lit, len(p.Lits))
	copy(lits, p.Lits)
	for i := range lits {
		lits[i].Ops = pruneOps(lits[i].Ops, p.Lits[i].Ops[0].Schema())
	}
	p.Lits = lits
	in := p.HeadSchema
	if len(p.Joins) > 0 {
		in = p.Joins[len(p.Joins)-1].Out
	}
	p.HeadOps = pruneOps(p.HeadOps, in)
}

// pruneOps rewrites one op sequence, tracking the input schema of each
// op so identity Reshape entries can be recognized.
func pruneOps(ops []Op, in []rel.Attr) []Op {
	out := make([]Op, 0, len(ops))
	for _, o := range ops {
		switch o := o.(type) {
		case *Reshape:
			spec := make(map[string]rel.Remap, len(o.Spec))
			for k, mv := range o.Spec {
				cur, ok := findAttr(in, k)
				identity := ok &&
					(mv.NewName == "" || mv.NewName == k) &&
					(mv.NewPhys == nil || mv.NewPhys == cur.Phys)
				if !identity {
					spec[k] = mv
				}
			}
			if len(spec) == 0 {
				continue // output schema equals input; op vanishes
			}
			out = append(out, &Reshape{Spec: spec, Out: o.Schema()})
		case *Project:
			if len(o.Drop) == 0 {
				continue
			}
			out = append(out, o)
		default:
			out = append(out, o)
		}
		in = o.Schema()
	}
	return out
}

func findAttr(s []rel.Attr, name string) (rel.Attr, bool) {
	for _, a := range s {
		if a.Name == name {
			return a, true
		}
	}
	return rel.Attr{}, false
}
