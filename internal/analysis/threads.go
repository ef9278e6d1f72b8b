package analysis

import (
	"fmt"
	"sort"

	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// ThreadContexts is the Section 5.6 context scheme: context 0 holds the
// global objects, context 1 is the startup (main) thread, and every
// thread allocation site owns two contexts — a thread and its clone —
// so that same-site instances can be told apart ("this scheme creates
// at most twice as many contexts as there are thread creation sites").
type ThreadContexts struct {
	// NumContexts is the CT domain size: 2 + 2*len(ThreadAllocSites).
	NumContexts uint64
	// SiteContexts maps each thread allocation site (H index) to its two
	// context numbers.
	SiteContexts map[int][2]uint64
	// ContextMethods lists, per context >= 1, the methods running in it.
	ContextMethods map[uint64][]int
}

// GlobalContext is the CT value holding global objects.
const GlobalContext uint64 = 0

// MainContext is the CT value of the startup thread.
const MainContext uint64 = 1

// AssignThreadContexts computes the thread contexts of a program over a
// precomputed call graph: methods reachable from the entries without
// crossing a thread-spawn edge run in the main context; methods
// reachable from a thread site's run() method run in both of that
// site's contexts.
func AssignThreadContexts(f *extract.Facts, g *callgraph.Graph) *ThreadContexts {
	tc := &ThreadContexts{
		NumContexts:    2 + 2*uint64(len(f.ThreadAllocs)),
		SiteContexts:   make(map[int][2]uint64),
		ContextMethods: make(map[uint64][]int),
	}
	spawn := make(map[int]bool)
	for _, i := range f.StartSites {
		spawn[i] = true
	}
	succ := make(map[int][]int)
	for _, e := range g.Edges {
		if spawn[e.Invoke] {
			continue
		}
		succ[e.Caller] = append(succ[e.Caller], e.Callee)
	}
	reach := func(roots []int) []int {
		seen := make(map[int]bool)
		stack := append([]int(nil), roots...)
		for _, r := range roots {
			seen[r] = true
		}
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range succ[m] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		out := make([]int, 0, len(seen))
		for m := range seen {
			out = append(out, m)
		}
		sort.Ints(out)
		return out
	}
	tc.ContextMethods[MainContext] = reach(f.EntryMethods)
	next := uint64(2)
	for _, h := range f.ThreadAllocs {
		pair := [2]uint64{next, next + 1}
		next += 2
		tc.SiteContexts[h] = pair
		// The run() entry of this thread type.
		var roots []int
		ty := f.Types[heapType(f, uint64(h))]
		if m := f.Hierarchy.Dispatch(ty, "run"); m != nil {
			if mi := f.MethodIndex(m.QName()); mi >= 0 {
				roots = append(roots, mi)
			}
		}
		ms := reach(roots)
		tc.ContextMethods[pair[0]] = ms
		tc.ContextMethods[pair[1]] = ms
	}
	return tc
}

func heapType(f *extract.Facts, h uint64) uint64 {
	for _, t := range f.HT {
		if t[0] == h {
			return t[1]
		}
	}
	return 0
}

// RunThreadEscape runs Algorithm 7 plus the escaped/captured/
// neededSyncs queries. When g is nil the call graph is discovered with
// Algorithm 3 first.
func RunThreadEscape(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	if g == nil {
		g, err = DiscoverCallGraph(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: call graph discovery: %w", err)
		}
	}
	obs.Begin(cfg.Tracer, "analysis.thread_contexts")
	tc := AssignThreadContexts(f, g)
	obs.End(cfg.Tracer, obs.A("contexts", tc.NumContexts))

	prog, err := datalog.Parse(Algorithm7Src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, ctOrder)
	cfg.checkpointOpts(&opts)
	opts.DomainSizes["CT"] = tc.NumContexts
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	fill(s, "assign", AssignEdges(f, g, true))

	// eqCT diagonal for the inequality in escaped().
	diag := make([][]uint64, tc.NumContexts)
	for c := range diag {
		diag[c] = []uint64{uint64(c), uint64(c)}
	}
	s.Relation("eqCT").AddTuples(diag)

	// HT: non-thread allocation sites per context.
	isThreadAlloc := make(map[uint64]bool)
	for _, h := range f.ThreadAllocs {
		isThreadAlloc[uint64(h)] = true
	}
	allocsOf := make(map[int][]uint64)
	for h, mi := range f.AllocMethod {
		if mi >= 0 && !isThreadAlloc[uint64(h)] {
			allocsOf[mi] = append(allocsOf[mi], uint64(h))
		}
	}
	var ht [][]uint64
	for c, methods := range tc.ContextMethods {
		for _, mi := range methods {
			for _, h := range allocsOf[mi] {
				ht = append(ht, []uint64{c, h})
			}
		}
	}
	s.Relation("HT").AddTuples(ht)

	// vP0T: global object, thread creation sites, and run() receivers.
	// Every *executing* context (1..n) sees the global variable; context
	// 0 itself is only the ownership tag of global objects, not a
	// thread, so it must not appear as an accessing context.
	var vp0t [][]uint64
	for c := MainContext; c < tc.NumContexts; c++ {
		vp0t = append(vp0t, []uint64{c, extract.GlobalVarIdx, GlobalContext, extract.GlobalObjIdx})
	}
	allocDst := make(map[uint64]uint64) // alloc site -> destination var
	for _, t := range f.VP0 {
		if t[1] != extract.GlobalObjIdx {
			allocDst[t[1]] = t[0]
		}
	}
	for _, h := range f.ThreadAllocs {
		pair := tc.SiteContexts[h]
		mi := f.AllocMethod[h]
		dst, ok := allocDst[uint64(h)]
		if !ok {
			continue
		}
		// Every context the allocating method runs in sees both clones.
		for c, methods := range tc.ContextMethods {
			for _, m := range methods {
				if m == mi {
					vp0t = append(vp0t,
						[]uint64{c, dst, pair[0], uint64(h)},
						[]uint64{c, dst, pair[1], uint64(h)})
				}
			}
		}
		// The run() receiver of each clone points to its own thread
		// object ("a clone of a method not only has its own cloned
		// variables, but also its own cloned object creation sites").
		ty := f.Types[heapType(f, uint64(h))]
		if m := f.Hierarchy.Dispatch(ty, "run"); m != nil {
			if this := f.LocalRep(m.QName(), "this"); this >= 0 {
				vp0t = append(vp0t,
					[]uint64{pair[0], uint64(this), pair[0], uint64(h)},
					[]uint64{pair[1], uint64(this), pair[1], uint64(h)})
			}
		}
	}
	s.Relation("vP0T").AddTuples(vp0t)

	obs.End(cfg.Tracer) // analysis.fill

	if err := s.Solve(); err != nil {
		return nil, err
	}
	res := &Result{Solver: s, Facts: f, Graph: g}
	res.threadContexts = tc
	return res, nil
}
