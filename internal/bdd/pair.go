package bdd

import "fmt"

// Pair is a variable-renaming map for Replace, BuDDy's bdd_newpair /
// bdd_setpair. It maps source levels to destination levels; unmapped
// levels are unchanged.
type Pair struct {
	m *Manager
	// to[l] is the level that level l moves to (l itself when unmapped):
	// replace reads it once per node, so it is a slice indexed by
	// level. src[d] is the level explicitly mapped to d, or -1; it keeps
	// the injectivity check O(1).
	to, src []int32
	n       int  // explicitly mapped levels
	id      Node // unique id used as a cache key
}

// NewPair creates an empty renaming pair. The id is a per-manager
// counter (it only needs to be unique within this manager's replace
// cache) so independent managers on different goroutines never touch
// shared state.
func (m *Manager) NewPair() *Pair {
	if m.pairID == 0 {
		m.pairID = 1 << 20
	}
	m.pairID++
	p := &Pair{m: m, id: m.pairID}
	p.grow(m.nvars)
	return p
}

// grow extends the level tables to cover n levels.
func (p *Pair) grow(n int32) {
	for l := int32(len(p.to)); l < n; l++ {
		p.to = append(p.to, l)
		p.src = append(p.src, -1)
	}
}

// Set maps the variable at level from to the variable at level to.
// Mapping a level twice or mapping two levels to one destination is an
// error: renamings must be injective.
func (p *Pair) Set(from, to int32) {
	if from == to {
		return
	}
	if from < 0 || to < 0 {
		panic(fmt.Sprintf("bdd: pair maps negative level (%d to %d)", from, to))
	}
	p.grow(max(from, to) + 1)
	if old := p.to[from]; old != from && old != to {
		panic(fmt.Sprintf("bdd: pair maps level %d twice (%d and %d)", from, old, to))
	}
	if f := p.src[to]; f >= 0 && f != from {
		panic(fmt.Sprintf("bdd: pair maps levels %d and %d to same destination %d", f, from, to))
	}
	if p.to[from] == from {
		p.n++
	}
	p.to[from] = to
	p.src[to] = from
}

// SetDomains maps every bit of domain from onto the corresponding bit
// of domain to. The domains must have the same bit width.
func (p *Pair) SetDomains(from, to *Domain) {
	if len(from.levels) != len(to.levels) {
		panic(fmt.Sprintf("bdd: pair over domains %s (%d bits) and %s (%d bits)",
			from.Name, len(from.levels), to.Name, len(to.levels)))
	}
	for i := range from.levels {
		p.Set(from.levels[i], to.levels[i])
	}
}

// Len reports how many levels the pair remaps.
func (p *Pair) Len() int { return p.n }

// Replace renames variables in a according to the pair. Referenced for
// the caller. This is BuDDy's bdd_replace: the implementation recurses
// to the children, substitutes the mapped level, and re-inserts it at
// its proper position in the order (correctify).
func (m *Manager) Replace(a Node, p *Pair) Node {
	if p.n == 0 {
		return m.Ref(a)
	}
	return m.Ref(m.replace(a, p))
}

func (m *Manager) replace(a Node, p *Pair) Node {
	m.control.Poll()
	if a <= 1 {
		return a
	}
	if r, ok := m.replCache.lookup(a, p.id); ok {
		return r
	}
	nd := m.nodes[a]
	low := m.replace(nd.low, p)
	high := m.replace(nd.high, p)
	lv := nd.level
	if int(lv) < len(p.to) {
		lv = p.to[lv]
	}
	res := m.correctify(lv, low, high)
	m.replCache.insert(a, p.id, res)
	return res
}

// correctify builds the function "if var(level) then high else low" when
// level may sit below the roots of low/high in the variable order.
func (m *Manager) correctify(level int32, low, high Node) Node {
	ll, lh := m.nodes[low].level, m.nodes[high].level
	if level < ll && level < lh {
		return m.makeNode(level, low, high)
	}
	if level == ll || level == lh {
		panic(fmt.Sprintf("bdd: replace would collapse destination level %d onto a child root (low at level %d, high at level %d): renaming is not injective at this level",
			level, ll, lh))
	}
	if ll == lh {
		l := m.correctify(level, m.nodes[low].low, m.nodes[high].low)
		h := m.correctify(level, m.nodes[low].high, m.nodes[high].high)
		return m.makeNode(ll, l, h)
	}
	if ll < lh {
		l := m.correctify(level, m.nodes[low].low, high)
		h := m.correctify(level, m.nodes[low].high, high)
		return m.makeNode(ll, l, h)
	}
	l := m.correctify(level, low, m.nodes[high].low)
	h := m.correctify(level, low, m.nodes[high].high)
	return m.makeNode(lh, l, h)
}
