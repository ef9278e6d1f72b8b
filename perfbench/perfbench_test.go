package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// recordThenCheck runs f twice: first recording outputs, then checking
// a second run against that record. Both must pass every check.
func recordThenCheck(t *testing.T, f func(c *checker) error) {
	t.Helper()
	rec := newChecker(nil)
	if err := f(rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.problems) > 0 {
		t.Fatalf("recording run: %v", rec.problems)
	}
	chk := newChecker(rec.got)
	if err := f(chk); err != nil {
		t.Fatal(err)
	}
	if len(chk.problems) > 0 {
		t.Fatalf("checked run: %v", chk.problems)
	}
}

func TestSmokeGoCS(t *testing.T) {
	spec := goSpec{pattern: "encoding/hex"}
	recordThenCheck(t, func(c *checker) error {
		if err := c.pin(spec.pattern); err != nil {
			return err
		}
		p, g, err := runGoPass(spec, c, newSpanSums())
		if err != nil {
			return err
		}
		if cov := p.covered.Seconds() / p.wall.Seconds(); cov < 0.95 || cov > 1.05 {
			t.Errorf("layer spans cover %.3f of the pass", cov)
		}
		for _, name := range []string{"gofront.lower_s", "analysis.cloned_s", "datalog.solve_s", "analysis.fill_s", "bdd.peak_live_nodes"} {
			if _, ok := p.layers[name]; !ok {
				t.Errorf("per-layer metric %s missing", name)
			}
		}
		return checkGo(spec, g, c)
	})
}

func TestSmokeGoHeapCS(t *testing.T) {
	spec := goSpec{pattern: "encoding/base32", heap: true}
	recordThenCheck(t, func(c *checker) error {
		_, g, err := runGoPass(spec, c, nil)
		if err != nil {
			return err
		}
		return checkGo(spec, g, c)
	})
}

func TestSmokeSynth(t *testing.T) {
	names := []string{"freetts"}
	progs, err := generateSynth(names)
	if err != nil {
		t.Fatal(err)
	}
	recordThenCheck(t, func(c *checker) error {
		_, facts, err := synthPass(names, progs, c, nil)
		if err != nil {
			return err
		}
		return checkSynth(names, facts, c)
	})
}

func TestSmokeServe(t *testing.T) {
	c := newChecker(nil)
	d, err := setupDaemon(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	load := runLoad(d, 7, 0.05)
	if len(load.errs) > 0 {
		t.Fatalf("load errors: %v", load.errs)
	}
	if len(load.rounds) == 0 || len(load.writes) != len(roundWrites)*len(load.rounds) {
		t.Fatalf("%d rounds, %d writes", len(load.rounds), len(load.writes))
	}
	updates := len(load.writes)
	if err := checkDaemon(d, 7, updates, c); err != nil {
		t.Fatal(err)
	}
	if len(c.problems) > 0 {
		t.Fatal(c.problems)
	}
}

// runWithExpected runs the serve workload briefly against a copy of
// expected.json edited by edit, returning the exit code and output.
func runWithExpected(t *testing.T, edit func(*expected)) (int, string) {
	t.Helper()
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	edit(exp)
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := exp.save(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve-json-mixed", "--seed", "3", "--seconds", "0.05", "--trace", "0"}, path, "../BENCHMARK.json", &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	for i := len(lines) - 1; i >= 0; i-- {
		if json.Unmarshal([]byte(lines[i]), &res) == nil {
			return res
		}
	}
	t.Fatalf("no result line in %q", out)
	return res
}

func TestRecordedRunPasses(t *testing.T) {
	code, out := runWithExpected(t, func(*expected) {})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	res := lastResult(t, out)
	for _, name := range []string{"setup_s", "cpu_s", "peak_rss_mb"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", name, m)
		}
	}
}

func TestTamperedChecksumFails(t *testing.T) {
	code, out := runWithExpected(t, func(e *expected) {
		e.Workloads["serve-json-mixed"].Digests["pairs"] = strings.Repeat("0", 64)
	})
	if code == 0 {
		t.Fatalf("tampered digest: exit 0:\n%s", out)
	}
	if res := lastResult(t, out); res.Correct {
		t.Fatalf("tampered digest reported correct")
	}
}

func TestChangedInputRefused(t *testing.T) {
	code, out := runWithExpected(t, func(e *expected) {
		e.Workloads["serve-json-mixed"].Inputs["encoding/json"] = strings.Repeat("0", 64)
	})
	if code != 2 || strings.Contains(out, `"correct"`) {
		t.Fatalf("changed input: exit %d, want 2 and no result:\n%s", code, out)
	}
}

func TestMissingExpectedRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "synth-fig4", "--seconds", "1"}, filepath.Join(t.TempDir(), "none.json"), "../BENCHMARK.json", &stdout, &stderr)
	if code == 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestReportFollowsManifest(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{
		endToEnd: map[string]float64{"cpu_s": 2},
		layers:   map[string]float64{"datalog.solve_s": 1.5, "undeclared": 3},
	}
	c := newChecker(nil)
	traced := man.report(out, true, c)
	if len(traced) != len(man.PerLayer) || len(c.problems) > 0 {
		t.Fatalf("traced report has %d metrics, want %d; problems %v", len(traced), len(man.PerLayer), c.problems)
	}
	for _, d := range man.PerLayer {
		if got := traced[d.Name]; got.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, got.Unit, d.Unit)
		}
	}
	if traced["datalog.solve_s"].Value != 1.5 || traced["serve.new_s"].Value != 0 {
		t.Errorf("traced values: %+v", traced)
	}
	plain := man.report(out, false, c)
	if len(plain) != len(man.EndToEnd) || plain["cpu_s"].Value != 2 {
		t.Errorf("untraced report: %+v", plain)
	}
	if len(c.problems) != len(man.EndToEnd)-1 {
		t.Errorf("unmeasured end-to-end metrics gave problems %v", c.problems)
	}
}
