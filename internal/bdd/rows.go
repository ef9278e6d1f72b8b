package bdd

import (
	"fmt"
	"slices"
	"sort"
)

// FromRows returns the BDD of a set of tuples: rows[i][j] is the value
// of column j, encoded on doms[j]. Referenced for the caller.
//
// It is the bulk counterpart of ORing one minterm per row. Each row
// becomes a key holding its bits in variable-level order (multi-word,
// so any total width works); the keys are sorted and deduplicated, and
// one recursive pass splits the sorted range on each level in turn,
// building every node bottom-up with a single makeNode per distinct
// key prefix. No apply, no op cache, no intermediate results to free.
// Duplicate rows and an empty batch are fine (the latter is False).
func (m *Manager) FromRows(doms []*Domain, rows [][]uint64) Node {
	if len(rows) == 0 {
		return m.Ref(False)
	}
	// bits lists every encoded bit of every column, sorted by level.
	type bitRef struct {
		level int32
		col   int
		shift uint
	}
	var bits []bitRef
	for j, d := range doms {
		d.checkFinalized()
		for i, lv := range d.levels {
			bits = append(bits, bitRef{lv, j, uint(i)})
		}
	}
	sort.Slice(bits, func(i, j int) bool { return bits[i].level < bits[j].level })
	levels := make([]int32, len(bits))
	for p, b := range bits {
		if p > 0 && b.level == bits[p-1].level {
			panic(fmt.Sprintf("bdd: FromRows columns %s and %s share level %d",
				doms[bits[p-1].col].Name, doms[b.col].Name, b.level))
		}
		levels[p] = b.level
	}
	// Key of row r: words [r*w, (r+1)*w), the bit at level position p
	// stored most significant first, so word-wise comparison is
	// level-order comparison.
	w := (len(bits) + 63) / 64
	keys := make([]uint64, len(rows)*w)
	for r, row := range rows {
		if len(row) != len(doms) {
			panic(fmt.Sprintf("bdd: FromRows row %v has %d values for %d domains", row, len(row), len(doms)))
		}
		for j, v := range row {
			if v >= doms[j].Size {
				panic(fmt.Sprintf("bdd: value %d outside domain %s of size %d", v, doms[j].Name, doms[j].Size))
			}
		}
		k := keys[r*w : (r+1)*w]
		for p, b := range bits {
			if row[b.col]>>b.shift&1 != 0 {
				k[p>>6] |= 1 << (63 - uint(p&63))
			}
		}
	}
	if w == 0 {
		return m.Ref(True) // zero-width tuples: the one empty tuple
	}
	key := func(r int) []uint64 { return keys[r*w : (r+1)*w] }
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(key(a), key(b)) })
	sorted := make([]uint64, 0, len(keys))
	for i, r := range order {
		if i > 0 && slices.Equal(key(r), key(order[i-1])) {
			continue
		}
		sorted = append(sorted, key(r)...)
	}
	rb := rowBuilder{m: m, levels: levels, keys: sorted, w: w}
	return m.Ref(rb.build(0, len(sorted)/w, 0))
}

// rowBuilder holds FromRows' sorted, deduplicated keys.
type rowBuilder struct {
	m      *Manager
	levels []int32
	keys   []uint64
	w      int
}

// bit reports the bit at level position p of key r.
func (b *rowBuilder) bit(r, p int) bool {
	return b.keys[r*b.w+p>>6]>>(63-uint(p&63))&1 != 0
}

// build returns the node for keys [lo, hi), which agree on the level
// positions before depth. Keys with a 0 at depth sort first, so one
// binary search splits the range into the low and high cofactors.
// Nodes are built unreferenced: the manager never collects during an
// operation, and FromRows references the root.
func (b *rowBuilder) build(lo, hi, depth int) Node {
	if lo == hi {
		return False
	}
	if depth == len(b.levels) {
		return True
	}
	b.m.control.Poll()
	mid := lo + sort.Search(hi-lo, func(i int) bool { return b.bit(lo+i, depth) })
	low := b.build(lo, mid, depth+1)
	high := b.build(mid, hi, depth+1)
	return b.m.makeNode(b.levels[depth], low, high)
}
