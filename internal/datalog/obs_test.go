package datalog

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bddbddb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tinyTraceJSON solves the transitive-closure program under a
// deterministic clock and returns the Chrome trace bytes. Everything in
// the trace — event order, names, args, and timestamps — is a pure
// function of the program and inputs, so the bytes are reproducible.
func tinyTraceJSON(t *testing.T) []byte {
	t.Helper()
	var ticks int64
	clock := func() time.Duration {
		ticks++
		return time.Duration(ticks) * 50 * time.Microsecond
	}
	tr := obs.NewChromeTraceClock(clock)
	s, err := NewSolver(MustParse(tcSrc), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Relation("e")
	for _, row := range [][]uint64{{0, 1}, {1, 2}, {2, 3}} {
		e.AddTuple(row...)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Args map[string]any `json:"args"`
}

func TestSolveTraceShape(t *testing.T) {
	raw := tinyTraceJSON(t)
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// Timestamps are monotonically non-decreasing and spans balance.
	depth := 0
	var last int64 = -1
	seen := map[string]bool{}
	for i, e := range doc.TraceEvents {
		if e.Ts < last {
			t.Fatalf("event %d (%s %s): ts %d < previous %d", i, e.Ph, e.Name, e.Ts, last)
		}
		last = e.Ts
		switch e.Ph {
		case "B":
			depth++
			seen[e.Name] = true
		case "E":
			depth--
			if depth < 0 {
				t.Fatalf("event %d: unbalanced End for %q", i, e.Name)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("%d spans left open", depth)
	}
	// The stable span names the docs promise: solve → stratum →
	// iteration → rule application.
	for _, want := range []string{"datalog.solve", "datalog.facts", "stratum 0", "iteration 1", "rule 0: tc", "rule 1: tc"} {
		if !seen[want] {
			t.Errorf("trace missing span %q; have %v", want, keys(seen))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSolveTraceGolden compares the deterministic trace byte-for-byte
// with testdata/trace_golden.json. Regenerate with:
//
//	go test ./internal/datalog -run TestSolveTraceGolden -update
func TestSolveTraceGolden(t *testing.T) {
	got := tinyTraceJSON(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (rerun with -update after intended changes)\ngot:\n%s", golden, got)
	}
}

// TestSolveHistograms: the solver's shared apply-time and op-result-size
// histograms fill during Solve and land in an external registry.
func TestSolveHistograms(t *testing.T) {
	reg := obs.New()
	s, err := NewSolver(MustParse(tcSrc), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Relation("e")
	for _, row := range [][]uint64{{0, 1}, {1, 2}, {2, 3}} {
		e.AddTuple(row...)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	apps := s.Stats().RuleApplications
	h := s.Metrics().Histogram("datalog.rule.apply_sec", nil)
	if h.Count() != apps {
		t.Errorf("apply_sec count = %d, want %d (one observation per rule application)", h.Count(), apps)
	}
	ops := s.Metrics().Histogram("datalog.op.result_nodes", nil)
	if ops.Count() == 0 {
		t.Errorf("result_nodes histogram is empty")
	}
	// The flattened copy in opts.Metrics carries the derived keys.
	snap := reg.Snapshot()
	for _, k := range []string{
		"datalog.rule.apply_sec.count", "datalog.rule.apply_sec.p99",
		"datalog.op.result_nodes.count", "datalog.op.result_nodes.p99",
	} {
		if _, ok := snap[k]; !ok {
			t.Errorf("external registry missing %s", k)
		}
	}
}

// TestRuleTupleKeysOnlyWhenCounted: the per-rule .tuples counters exist
// only in a solve that measures them, so an uncounted rule exports no
// key instead of a misleading 0.
func TestRuleTupleKeysOnlyWhenCounted(t *testing.T) {
	tupleKeys := func(count bool) []string {
		s, err := NewSolver(MustParse(tcSrc), Options{CountRuleTuples: count})
		if err != nil {
			t.Fatal(err)
		}
		s.Relation("e").AddTuple(0, 1)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for k := range s.Metrics().Snapshot() {
			if strings.HasPrefix(k, "datalog.rule.") && strings.HasSuffix(k, ".tuples") {
				out = append(out, k)
			}
		}
		return out
	}
	if keys := tupleKeys(false); len(keys) != 0 {
		t.Errorf("plain solve exports %v", keys)
	}
	if keys := tupleKeys(true); len(keys) != 2 {
		t.Errorf("counting solve exports %v, want one key per rule", keys)
	}
}

// TestSharedRegistrySumsWorkCounters: two solves exporting into one
// registry leave each work counter at the sum of the two solvers' own
// counts, while a gauge keeps the last solve's value.
func TestSharedRegistrySumsWorkCounters(t *testing.T) {
	shared := obs.New()
	var solvers []*Solver
	for _, n := range []uint64{4, 11} {
		s, err := NewSolver(MustParse(tcSrc), Options{Metrics: shared})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			s.Relation("e").AddTuple(i, i+1)
		}
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		solvers = append(solvers, s)
	}
	keys := []string{keyRuleApps, keyIters,
		"datalog.op.norm_cache_hits", "datalog.op.norm_cache_misses",
		"datalog.op.norm_cache_advances", "datalog.op.reshape_moves"}
	for _, key := range opMetricKeys {
		keys = append(keys, key)
	}
	got := shared.Snapshot()
	first, last := solvers[0].Metrics().Snapshot(), solvers[1].Metrics().Snapshot()
	if first[keyIters] == 0 || last[keyIters] == 0 {
		t.Fatalf("iterations %v and %v: both solves must count work", first[keyIters], last[keyIters])
	}
	for _, key := range keys {
		if want := first[key] + last[key]; got[key] != want {
			t.Errorf("%s = %v, want %v + %v", key, got[key], first[key], last[key])
		}
	}
	if got["datalog.solve.sec"] != last["datalog.solve.sec"] {
		t.Errorf("datalog.solve.sec = %v, want the last solve's %v", got["datalog.solve.sec"], last["datalog.solve.sec"])
	}
}
