package datalog

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"sort"
	"strings"
	"time"

	"bddbddb/internal/bdd"
	"bddbddb/internal/datalog/check"
	"bddbddb/internal/datalog/plan"
	"bddbddb/internal/obs"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// Options configures a Solver.
type Options struct {
	// Order lists logical domain names from the top of the BDD variable
	// order downward (instances of a domain are always interleaved in
	// one block). Unlisted domains follow in declaration order.
	Order []string
	// NodeSize / CacheSize size the BDD manager (0 = defaults).
	NodeSize, CacheSize int
	// DomainSizes overrides declared domain sizes, e.g. to size the
	// context domain C to the actual number of call paths.
	DomainSizes map[string]uint64
	// ElemNames supplies element names per domain (the paper's ".map"
	// files); quoted constants in rules resolve through these.
	ElemNames map[string][]string
	// GCTrigger is the live-node fraction of the table (percent) above
	// which the solver garbage-collects between iterations. 0 means 75.
	GCTrigger int
	// CountRuleTuples additionally records, per rule, how many new head
	// tuples it derived (RuleStats.DeltaTuples). Counting is an exact
	// satcount per derivation, so it costs a little; rule applications
	// and times are always collected. Only a counting solve exports the
	// datalog.rule.NNN.tuples keys; an uncounted rule has no key rather
	// than a 0.
	CountRuleTuples bool
	// Tracer receives solve/stratum/iteration/rule spans plus the BDD
	// manager's GC and growth events. Nil (the default) emits nothing
	// and costs one branch per rule application.
	Tracer obs.Tracer
	// Metrics, when set, receives a flat summary at the end of Solve:
	// solve time, iteration and rule-application counts, per-rule
	// timings, BDD stats (peak live nodes, GCs, per-cache hit ratios),
	// and final relation cardinalities. The work counters
	// (datalog.op.*, datalog.rule_applications, datalog.iterations) add
	// to what earlier solves exported, so a registry shared across
	// several solves holds their totals. Every other key, including the
	// per-rule datalog.rule.NNN keys, is written as a gauge and keeps
	// the last solve's value.
	Metrics *obs.Metrics
	// Control, when set, is polled for cancellation and resource budgets
	// throughout evaluation: inside the BDD operations, per rule
	// application, and per fixpoint iteration (which also counts toward
	// Budget.MaxIterations). Violations surface from Solve as typed
	// errors (resilience.ErrCanceled / ErrBudgetExceeded).
	Control *resilience.Controller
	// Checkpoint, when set, saves the solver state into Checkpoint.Dir
	// at fixpoint-iteration and stratum boundaries.
	Checkpoint *resilience.CheckpointConfig
	// ResumeFrom, when set, restores a checkpoint directory written by a
	// previous run of the same program (verified by fingerprint) and
	// continues the evaluation from it instead of starting fresh.
	ResumeFrom string
	// PreSolve, when set, runs inside Solve after facts are applied and
	// before the first stratum evaluates — the one point where input
	// relations hold their complete pre-fixpoint contents (fills and
	// facts alike), so a caller can apply an input-tuple delta there and
	// get exactly the semantics of IncrementalSolver.Update's edits to a
	// live solver. Skipped when resuming from a checkpoint (the restored
	// relations already include everything up to the checkpoint).
	PreSolve func(*Solver) error
}

// SolverStats reports the work a Solve performed; the benchmark harness
// uses PeakLiveNodes for the paper's Figure 4 memory column. It is a
// view assembled from the solver's obs metrics registry — the registry
// is the single counting path.
type SolverStats struct {
	RuleApplications int64
	Iterations       int
	SolveTime        time.Duration
	PeakLiveNodes    int
	NodesAllocated   int64
	GCs              int64
	// Rules holds per-rule measurements in program order — the data
	// behind the paper's Section 6.4 tuning loop.
	Rules []RuleStats
	// Relations reports each declared relation's final cardinality
	// (exact satcount), valid after Solve — the paper's size columns.
	Relations []RelationCard
}

// RelationCard is one relation's final tuple count.
type RelationCard struct {
	Name   string
	Tuples *big.Int
}

// RelationTuples returns the recorded final cardinality of the named
// relation (saturating at MaxInt64), or -1 when no cardinality was
// collected for it.
func (st SolverStats) RelationTuples(name string) int64 {
	for _, rc := range st.Relations {
		if rc.Name == name {
			return satInt64(rc.Tuples)
		}
	}
	return -1
}

// RuleStats is the cost of one rule across the whole evaluation.
type RuleStats struct {
	Rule         string
	Applications int64
	Time         time.Duration
	// DeltaTuples counts the new head tuples this rule contributed.
	DeltaTuples int64
}

// Registry key names used by the solver's counting path.
const (
	keySolve    = "datalog.solve"
	keyRuleApps = "datalog.rule_applications"
	keyIters    = "datalog.iterations"
)

// opMetricKeys maps plan op kinds to their datalog.op.* counter keys.
var opMetricKeys = map[string]string{
	"Load":        "datalog.op.load",
	"SelectConst": "datalog.op.select_const",
	"EquateAttrs": "datalog.op.equate_attrs",
	"Project":     "datalog.op.project",
	"Reshape":     "datalog.op.reshape",
	"JoinProject": "datalog.op.join_project",
	"Complement":  "datalog.op.complement",
	"BindFull":    "datalog.op.bind_full",
	"ConstHead":   "datalog.op.const_head",
	"DupHead":     "datalog.op.dup_head",
}

// Solver evaluates one Datalog program over BDD relations.
type Solver struct {
	prog     *Program
	opts     Options
	u        *rel.Universe
	rels     map[string]*rel.Relation
	strata   []*stratum
	compiled map[*Rule]*compiledRule
	elemIdx  map[string]map[string]uint64
	solved   bool
	// queryBase marks relations a QueryBase bound in from a frozen
	// snapshot: they are read-only inputs the solver does not own, and
	// collectRelationCards skips them (satcounting a context-sensitive
	// points-to relation per served query would dwarf the query itself).
	queryBase map[string]bool

	// reg is the solver's private metrics registry: every count the
	// solver keeps (rule applications, iterations, per-rule timers,
	// solve time, BDD stats) lives here, and SolverStats is derived
	// from it. opts.Metrics, if set, gets a flattened copy at the end
	// of Solve (exportMetrics); work holds the counters that copy adds
	// rather than sets.
	reg    *obs.Metrics
	work   map[string]*obs.Counter
	tr     obs.Tracer
	cApps  *obs.Counter
	cIters *obs.Counter
	// opCounters counts executed plan ops by kind (datalog.op.*);
	// cHoistHits/cHoistMisses count normalization-cache reads served
	// and rebuilt, cHoistAdvances caches moved forward by a union, and
	// cReshapeMoves the Reshapes that ran a bdd.Replace.
	opCounters     map[string]*obs.Counter
	cHoistHits     *obs.Counter
	cHoistMisses   *obs.Counter
	cHoistAdvances *obs.Counter
	cReshapeMoves  *obs.Counter
	ruleObs        map[*Rule]*ruleObs
	relCards       []RelationCard
	// hRuleApply aggregates every rule application's wall time into one
	// latency distribution (datalog.rule.apply_sec); hOpNodes records
	// each plan op's materialized result size as the delta of the BDD
	// manager's produced-node counter (datalog.op.result_nodes) — an
	// O(1) proxy that avoids walking result BDDs on the hot path.
	hRuleApply *obs.Histogram
	hOpNodes   *obs.Histogram
}

// ruleObs bundles one rule's metric handles: the timer's count is the
// rule's application count, its total the cumulative evaluation time.
// tuples is nil unless Options.CountRuleTuples is set.
type ruleObs struct {
	text   string // the rule, for reports
	span   string // stable trace-span name, e.g. "rule 3: vP"
	timer  *obs.Timer
	tuples *obs.Counter
}

func (s *Solver) countDelta(r *Rule, fresh *rel.Relation) {
	ro := s.ruleObs[r]
	if ro.tuples == nil {
		return
	}
	n := satInt64(fresh.Size())
	ro.tuples.Add(n)
	if s.tr != nil {
		s.tr.Counter("datalog.delta_tuples", map[string]float64{r.Head.Pred: float64(n)})
	}
}

func satInt64(v *big.Int) int64 {
	if v.IsInt64() {
		return v.Int64()
	}
	return math.MaxInt64
}

// NewSolver builds the universe, relations, and rule plans for prog.
// The semantic checker runs first (against the domain sizes the solver
// will actually use), so hand-built or MustParse'd programs are
// validated even when the caller skipped ParseAndCheck.
func NewSolver(prog *Program, opts Options) (*Solver, error) {
	diags := check.ProgramOpts(prog, check.Options{DomainSizes: opts.DomainSizes})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	// The program's own .bddvarorder applies unless options override it.
	if opts.Order == nil && prog.Order != nil {
		opts.Order = prog.Order
	}
	s := &Solver{
		prog:     prog,
		opts:     opts,
		u:        rel.NewUniverse(),
		rels:     make(map[string]*rel.Relation),
		strata:   strata,
		compiled: make(map[*Rule]*compiledRule),
		elemIdx:  make(map[string]map[string]uint64),
		reg:      obs.New(),
		tr:       opts.Tracer,
		ruleObs:  make(map[*Rule]*ruleObs),
	}
	s.initObs()
	// Declare logical domains.
	for _, d := range prog.Domains {
		size := d.Size
		if o, ok := opts.DomainSizes[d.Name]; ok {
			size = o
		}
		ld := s.u.Declare(d.Name, size)
		if names, ok := opts.ElemNames[d.Name]; ok {
			ld.SetElemNames(names)
			idx := make(map[string]uint64, len(names))
			for i, n := range names {
				idx[n] = uint64(i)
			}
			s.elemIdx[d.Name] = idx
		}
	}
	// Instance requirements: relation schemas and per-rule variables.
	for _, rd := range prog.Relations {
		counts := make(map[string]int)
		for _, a := range rd.Attrs {
			counts[a.Domain]++
		}
		for dom, n := range counts {
			s.u.EnsureInstances(dom, n)
		}
	}
	assignments := make(map[*Rule]map[string]int)
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		asn, need := assignInstances(prog, rule)
		assignments[rule] = asn
		for dom, n := range need {
			s.u.EnsureInstances(dom, n)
		}
	}
	if err := s.u.Finalize(rel.FinalizeOptions{
		Order:     opts.Order,
		NodeSize:  opts.NodeSize,
		CacheSize: opts.CacheSize,
	}); err != nil {
		return nil, err
	}
	s.u.M.SetTracer(opts.Tracer)
	s.u.M.SetControl(opts.Control)
	// Materialize declared relations on their natural instances.
	for _, rd := range prog.Relations {
		attrs := make([]rel.Attr, len(rd.Attrs))
		seen := make(map[string]int)
		for i, a := range rd.Attrs {
			attrs[i] = s.u.A(a.Name, a.Domain, seen[a.Domain])
			seen[a.Domain]++
		}
		s.rels[rd.Name] = s.u.NewRelation(rd.Name, attrs...)
	}
	// Compile rules.
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		cr, err := s.compileRule(rule, assignments[rule])
		if err != nil {
			return nil, err
		}
		s.compiled[rule] = cr
	}
	return s, nil
}

// initObs wires the solver's private metrics registry: the shared
// counters, one counter per plan-op kind (pre-created so the keys
// appear in snapshots even when an op kind never runs), and per-rule
// timer handles, plus tuple counters when CountRuleTuples is set. Both
// NewSolver and QueryBase.Eval-built solvers go through here.
func (s *Solver) initObs() {
	s.work = make(map[string]*obs.Counter)
	work := func(key string) *obs.Counter {
		c := s.reg.Counter(key)
		s.work[key] = c
		return c
	}
	s.cApps = work(keyRuleApps)
	s.cIters = work(keyIters)
	s.opCounters = make(map[string]*obs.Counter)
	for kind, key := range opMetricKeys {
		s.opCounters[kind] = work(key)
	}
	s.cHoistHits = work("datalog.op.norm_cache_hits")
	s.cHoistMisses = work("datalog.op.norm_cache_misses")
	s.cHoistAdvances = work("datalog.op.norm_cache_advances")
	s.cReshapeMoves = work("datalog.op.reshape_moves")
	s.hRuleApply = s.reg.Histogram("datalog.rule.apply_sec", obs.LatencyBuckets())
	s.hOpNodes = s.reg.Histogram("datalog.op.result_nodes", obs.SizeBuckets())
	for i, rule := range s.prog.Rules {
		if rule.IsFact() {
			continue
		}
		key := fmt.Sprintf("datalog.rule.%03d", i)
		ro := &ruleObs{
			text:  rule.String(),
			span:  fmt.Sprintf("rule %d: %s", i, rule.Head.Pred),
			timer: s.reg.Timer(key),
		}
		if s.opts.CountRuleTuples {
			ro.tuples = s.reg.Counter(key + ".tuples")
		}
		s.ruleObs[rule] = ro
	}
}

// Universe exposes the solver's BDD universe so callers can construct
// relations directly (e.g. context-numbering builds IEC with AddConst).
func (s *Solver) Universe() *rel.Universe { return s.u }

// RelationDecls returns the program's relation declarations in
// declaration order — the schemas (attribute names + domains) of every
// relation the solver serves. Callers must not mutate the result.
func (s *Solver) RelationDecls() []*RelationDecl { return s.prog.Relations }

// Relation returns the live relation for a declared predicate. Fill
// input relations before Solve; read outputs after. The solver owns the
// relation; do not Free it.
//
// Panic audit: the unknown-relation panic here (and in
// ReplaceRelation) is a Go-API contract, not a user-input path — every
// caller passes names taken from the parsed program's own declarations
// (which the semantic checker has already validated), so user Datalog
// text cannot reach it. User-facing name errors are DL002 diagnostics
// from the checker.
func (s *Solver) Relation(name string) *rel.Relation {
	r := s.rels[name]
	if r == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", name))
	}
	return r
}

// HasRelation reports whether the program declares the relation.
func (s *Solver) HasRelation(name string) bool { return s.rels[name] != nil }

// ReplaceRelation swaps in an externally built relation (schema must
// match). The solver takes ownership.
func (s *Solver) ReplaceRelation(name string, r *rel.Relation) {
	old := s.rels[name]
	if old == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", name))
	}
	if !old.SameSchemaAs(r) {
		panic(fmt.Sprintf("datalog: ReplaceRelation %s: schema mismatch (%v vs %v)", name, old, r))
	}
	old.Free()
	s.rels[name] = r
}

// Stats returns evaluation statistics (valid after Solve), assembled
// from the solver's metrics registry. Rules are reported in program
// order.
func (s *Solver) Stats() SolverStats {
	out := SolverStats{
		RuleApplications: s.cApps.Value(),
		Iterations:       int(s.cIters.Value()),
		SolveTime:        s.reg.Timer(keySolve).Total(),
		PeakLiveNodes:    int(s.reg.Gauge("bdd.peak_live_nodes").Value()),
		NodesAllocated:   int64(s.reg.Gauge("bdd.produced_nodes").Value()),
		GCs:              int64(s.reg.Gauge("bdd.gcs").Value()),
		Relations:        s.relCards,
	}
	for _, r := range s.prog.Rules {
		ro := s.ruleObs[r]
		if ro == nil || ro.timer.Count() == 0 {
			continue
		}
		rs := RuleStats{
			Rule:         ro.text,
			Applications: ro.timer.Count(),
			Time:         ro.timer.Total(),
		}
		if ro.tuples != nil {
			rs.DeltaTuples = ro.tuples.Value()
		}
		out.Rules = append(out.Rules, rs)
	}
	return out
}

// Metrics exposes the solver's private registry (the single counting
// path behind Stats) for callers that want raw access.
func (s *Solver) Metrics() *obs.Metrics { return s.reg }

// resolveConst turns a term into a concrete domain value.
func (s *Solver) resolveConst(t Term, domain string) (uint64, error) {
	switch t.Kind {
	case TermConst:
		return t.Val, nil
	case TermNamedConst:
		idx, ok := s.elemIdx[domain]
		if !ok {
			return 0, fmt.Errorf("constant %q used but domain %s has no element names", t.Name, domain)
		}
		v, ok := idx[t.Name]
		if !ok {
			return 0, fmt.Errorf("constant %q not found in domain %s", t.Name, domain)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("term %s is not a constant", t)
	}
}

// Solve evaluates the program to fixpoint, stratum by stratum. A
// cancellation or budget violation (Options.Control) aborts out of the
// BDD recursions by panicking with a typed error; the Recover boundary
// here converts it back into an error return, so Solve never lets a
// resilience abort — or any other panic — escape as a panic.
func (s *Solver) Solve() (err error) {
	defer resilience.Recover(&err)
	if s.solved {
		return fmt.Errorf("datalog: Solve called twice")
	}
	s.solved = true
	start := time.Now()
	if s.tr != nil {
		s.tr.Begin("datalog.solve",
			obs.A("rules", len(s.prog.Rules)), obs.A("strata", len(s.strata)))
		defer func() { s.tr.End() }()
	}
	var rs *resumeState
	if s.opts.ResumeFrom != "" {
		rs, err = s.loadCheckpoint(s.opts.ResumeFrom)
		if err != nil {
			return err
		}
	}
	if rs == nil {
		// Facts are part of the checkpointed relations; resumed runs
		// must not re-apply them.
		if err := s.applyFacts(); err != nil {
			return err
		}
		if s.opts.PreSolve != nil {
			if err := s.opts.PreSolve(s); err != nil {
				return err
			}
		}
	}
	for i, st := range s.strata {
		if rs != nil && i < rs.stratum {
			continue // final in the checkpoint
		}
		var mid *resumeState
		if rs != nil && i == rs.stratum && rs.deltas != nil {
			mid = rs
		}
		if err := s.solveStratum(i, st, mid); err != nil {
			return err
		}
		if s.opts.Checkpoint != nil {
			if err := s.writeCheckpoint(i+1, 0, nil); err != nil {
				return err
			}
		}
	}
	s.reg.Timer(keySolve).Observe(time.Since(start))
	s.u.M.Stats().AddTo(s.reg)
	s.collectRelationCards()
	if s.opts.Metrics != nil {
		s.exportMetrics(s.opts.Metrics)
	}
	return nil
}

// exportMetrics copies the private registry into dst: the work
// counters add to dst's counters of the same name, every other key
// overwrites dst's gauge.
func (s *Solver) exportMetrics(dst *obs.Metrics) {
	snap := s.reg.Snapshot()
	for k, c := range s.work {
		dst.Counter(k).Add(c.Value())
		delete(snap, k)
	}
	for k, v := range snap {
		dst.Set(k, v)
	}
}

// collectRelationCards records every declared relation's final exact
// cardinality — the paper's relation-size columns — into the stats and
// the registry (as "relation.<name>.tuples").
func (s *Solver) collectRelationCards() {
	for _, rd := range s.prog.Relations {
		r := s.rels[rd.Name]
		if r == nil || s.queryBase[rd.Name] {
			continue
		}
		size := r.Size()
		s.relCards = append(s.relCards, RelationCard{Name: rd.Name, Tuples: size})
		f, _ := new(big.Float).SetInt(size).Float64()
		s.reg.Set("relation."+rd.Name+".tuples", f)
	}
}

func (s *Solver) applyFacts() error {
	if s.tr != nil {
		s.tr.Begin("datalog.facts")
		defer func() { s.tr.End() }()
	}
	for _, rule := range s.prog.Rules {
		if !rule.IsFact() {
			continue
		}
		decl := s.prog.Relation(rule.Head.Pred)
		vals := make([]uint64, len(rule.Head.Args))
		for i, t := range rule.Head.Args {
			v, err := s.resolveConst(t, decl.Attrs[i].Domain)
			if err != nil {
				return check.Errorf(check.CodeConstRange, s.prog.File, t.Line, t.Col, "%v", err)
			}
			vals[i] = v
		}
		s.rels[rule.Head.Pred].AddTuple(vals...)
	}
	return nil
}

// solveStratum evaluates one stratum to fixpoint. resume, when non-nil,
// seeds the semi-naive frontier from a checkpoint taken mid-stratum:
// the base rules already ran before the checkpoint (their output is in
// the restored relations), so evaluation continues straight into the
// delta iterations.
func (s *Solver) solveStratum(idx int, st *stratum, resume *resumeState) error {
	resilience.FaultPoint(resilience.FaultStratumStart)
	s.opts.Control.Check()
	if s.tr != nil {
		s.tr.Begin(fmt.Sprintf("stratum %d", idx), obs.A("rules", len(st.rules)))
		defer func() { s.tr.End() }()
	}
	ev := s.planStratum(st)
	defer ev.release(s.u.M)
	if resume == nil {
		for _, cr := range ev.rules {
			if len(cr.recursivePositions(ev.inStratum)) == 0 {
				s.derive(ev, cr, cr.plans[-1], nil, nil)
			}
		}
	}
	if len(ev.recur) == 0 {
		return nil
	}
	// Semi-naive iteration: deltas start at the current values (or, on
	// resume, at the checkpointed frontier).
	if resume != nil {
		return s.fixpoint(idx, ev, resume.deltas, resume.iter)
	}
	delta := make(map[string]*rel.Relation)
	for _, p := range st.preds {
		if r, ok := s.rels[p]; ok {
			delta[p] = r.Clone("Δ" + p)
		}
	}
	return s.fixpoint(idx, ev, delta, 0)
}

// stratumEval is one stratum's rules planned for evaluation.
type stratumEval struct {
	inStratum map[string]bool
	// card is the memoized live-cardinality lookup the plans were
	// built against.
	card func(pred string) float64
	// rules holds every non-fact rule of the stratum in program order;
	// recur the subset reading a predicate of the stratum itself.
	rules, recur []*compiledRule
	// advance indexes, by source predicate, the hoisting caches the
	// semi-naive loop reads while their source grows: the recursive
	// literals of rules with more than one recursive position (each is
	// read in full by the variants whose delta sits elsewhere).
	advance map[string][]*litCache
}

// planStratum plans every rule of the stratum against the
// cardinalities its sources have right now (lower strata are final,
// recursive relations hold their current values). Each rule gets a
// base variant and one delta variant per recursive position.
func (s *Solver) planStratum(st *stratum) *stratumEval {
	ev := &stratumEval{
		inStratum: make(map[string]bool),
		card:      s.cardFn(),
		advance:   make(map[string][]*litCache),
	}
	for _, p := range st.preds {
		ev.inStratum[p] = true
	}
	for _, rule := range st.rules {
		if rule.IsFact() {
			continue
		}
		cr := s.compiled[rule]
		s.planRule(cr, ev.inStratum, ev.card)
		ev.rules = append(ev.rules, cr)
		rec := cr.recursivePositions(ev.inStratum)
		if len(rec) > 0 {
			ev.recur = append(ev.recur, cr)
		}
		if len(rec) > 1 {
			for _, pos := range rec {
				pred := cr.naive.Lits[pos].Pred
				ev.advance[pred] = append(ev.advance[pred], cr.cache[pos])
			}
		}
	}
	return ev
}

// release drops the hoisted normalizations of the stratum's rules.
// Every rule belongs to exactly one stratum, so this covers all cache
// entries.
func (ev *stratumEval) release(m *bdd.Manager) {
	for _, cr := range ev.rules {
		cr.clearCaches(m)
	}
}

// derive applies one plan variant (delta is what its delta literal
// reads, nil for the base variant), adds the result's new tuples to the
// head relation, advances the stratum's hoisting caches over the head,
// and merges the new tuples into frontier under the head predicate
// when frontier is non-nil. Every rule application goes through here,
// and its rule span and timer cover all of it, cache advances included.
func (s *Solver) derive(ev *stratumEval, cr *compiledRule, p *plan.Plan, delta *rel.Relation, frontier map[string]*rel.Relation) {
	// One coarse cancellation/budget check per rule application; the
	// fine-grained strided polls live inside the BDD recursions.
	s.opts.Control.Check()
	ro := s.ruleObs[cr.rule]
	start := time.Now()
	if s.tr != nil {
		s.tr.Begin(ro.span)
	}
	defer func() {
		d := time.Since(start)
		ro.timer.Observe(d)
		s.hRuleApply.Observe(d.Seconds())
		if s.tr != nil {
			s.tr.End()
		}
	}()
	s.cApps.Inc()
	res := s.execPlan(cr, p, delta)
	head := s.rels[cr.rule.Head.Pred]
	fresh := res.Minus("fresh", head)
	res.Free()
	if fresh.IsEmpty() {
		fresh.Free()
		return
	}
	s.countDelta(cr.rule, fresh)
	pre := head.Stamp()
	head.UnionWith(fresh)
	s.advanceCaches(ev.advance[cr.rule.Head.Pred], head, pre, fresh)
	if frontier == nil {
		fresh.Free()
		return
	}
	if d := frontier[cr.rule.Head.Pred]; d == nil {
		frontier[cr.rule.Head.Pred] = fresh
	} else {
		d.UnionWith(fresh)
		fresh.Free()
	}
}

// advanceCaches keeps hoisted normalizations of head current across
// head ∪= fresh, where pre is head's stamp before the union: an entry
// that was valid then (same source, stamp pre) and whose pipeline
// distributes over union becomes norm ∪ pipeline(fresh), which equals
// a rebuild from the grown head. Other entries are left to fail their
// stamp check.
func (s *Solver) advanceCaches(caches []*litCache, head *rel.Relation, pre uint64, fresh *rel.Relation) {
	for _, c := range caches {
		if c.norm == nil || c.src != head || c.stamp != pre || !c.canAdvance() {
			continue
		}
		add := s.runPipeline(c.lit, fresh)
		c.norm.UnionWith(add)
		add.Free()
		c.stamp = head.Stamp()
		c.advances++
		s.cHoistAdvances.Inc()
	}
}

// fixpoint is the semi-naive loop, shared by Solve and live updates:
// each iteration fires every recursive rule once per recursive body
// position, reading that position's predicate from the frontier delta,
// and the tuples it derives form the next frontier. It returns when an
// iteration derives nothing, and takes ownership of delta. iter is the
// number of iterations already completed in this stratum (nonzero when
// resuming from a checkpoint); checkpoints are due by it.
func (s *Solver) fixpoint(idx int, ev *stratumEval, delta map[string]*rel.Relation, iter int64) error {
	for {
		iter++
		s.cIters.Inc()
		s.opts.Control.AddIteration()
		if s.tr != nil {
			s.tr.Begin(fmt.Sprintf("iteration %d", s.cIters.Value()))
		}
		next := make(map[string]*rel.Relation)
		for _, cr := range ev.recur {
			for _, pos := range cr.recursivePositions(ev.inStratum) {
				if d := delta[cr.naive.Lits[pos].Pred]; d != nil && !d.IsEmpty() {
					s.derive(ev, cr, cr.plans[pos], d, next)
				}
			}
		}
		for _, d := range delta {
			d.Free()
		}
		delta = next
		changed := len(delta) > 0
		s.maybeGC()
		if s.tr != nil {
			s.tr.End(obs.A("changed", changed))
		}
		if !changed {
			return nil
		}
		if s.opts.Checkpoint.Due(int(iter)) {
			if err := s.writeCheckpoint(idx, iter, delta); err != nil {
				for _, d := range delta {
					d.Free()
				}
				return err
			}
		}
	}
}

// planRule builds the rule's plan variants for the current stratum:
// the base variant and one semi-naive variant per recursive position,
// all optimized against live cardinalities.
func (s *Solver) planRule(cr *compiledRule, inStratum map[string]bool, card func(string) float64) {
	cr.plans = map[int]*plan.Plan{-1: plan.Optimize(cr.naive, card)}
	for _, pos := range cr.recursivePositions(inStratum) {
		cr.plans[pos] = plan.Optimize(cr.naive.WithDelta(pos), card)
	}
}

// cardFn returns a memoized live-cardinality lookup, the planner's
// cost input. Satcounts are exact but cost a BDD walk, so each
// predicate is counted at most once per planning round.
func (s *Solver) cardFn() func(pred string) float64 {
	memo := make(map[string]float64)
	return func(pred string) float64 {
		if v, ok := memo[pred]; ok {
			return v
		}
		v := 0.0
		if r := s.rels[pred]; r != nil {
			v = r.SizeFloat()
		}
		memo[pred] = v
		return v
	}
}

// RelationNames lists the program's declared relations in declaration
// order.
func (s *Solver) RelationNames() []string {
	out := make([]string, len(s.prog.Relations))
	for i, rd := range s.prog.Relations {
		out[i] = rd.Name
	}
	return out
}

// Explain writes every rule's execution plan, stratum by stratum: the
// canonical lowered form ("before", textual join order) and the
// optimizer's output ("after"), including each
// semi-naive delta variant for recursive rules. Loads are annotated
// with the cardinalities the planner saw, so calling Explain after
// filling input relations (as cmd/bddbddb -explain does) shows the
// actual planning decisions; non-delta literals whose normalization
// the interpreter hoists out of the fixpoint loop are listed per rule.
func (s *Solver) Explain(w io.Writer) {
	ruleIdx := make(map[*Rule]int)
	for i, r := range s.prog.Rules {
		ruleIdx[r] = i
	}
	card := s.cardFn()
	for si, st := range s.strata {
		inStratum := make(map[string]bool)
		for _, p := range st.preds {
			inStratum[p] = true
		}
		fmt.Fprintf(w, "== stratum %d ==\n", si)
		for _, rule := range st.rules {
			if rule.IsFact() {
				continue
			}
			cr := s.compiled[rule]
			fmt.Fprintf(w, "rule %d: %s\n", ruleIdx[rule], cr.naive.Rule)
			fmt.Fprintln(w, " before:")
			cr.naive.Format(w, card)
			opt := plan.Optimize(cr.naive, card)
			fmt.Fprintln(w, " after:")
			opt.Format(w, card)
			for _, pos := range cr.recursivePositions(inStratum) {
				dv := plan.Optimize(cr.naive.WithDelta(pos), card)
				fmt.Fprintf(w, " after (Δ%s at %d):\n", cr.naive.Lits[pos].Pred, pos)
				dv.Format(w, card)
			}
			var hoisted []string
			for i := range opt.Lits {
				l := &opt.Lits[i]
				if !l.Trivial() && !l.Delta() {
					hoisted = append(hoisted, l.Pred)
				}
			}
			if len(hoisted) > 0 {
				sort.Strings(hoisted)
				fmt.Fprintf(w, " hoisted per stratum: %s\n", strings.Join(hoisted, ", "))
			}
		}
	}
}

func (s *Solver) maybeGC() {
	trigger := s.opts.GCTrigger
	if trigger == 0 {
		trigger = 75
	}
	m := s.u.M
	if m.LiveNodes()*100 > m.Stats().TableSize*trigger {
		m.GC()
	}
}
