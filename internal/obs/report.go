package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Offline report helpers behind cmd/obsreport: load the repo's three
// observability file formats (flat metrics JSON from -metrics, Chrome
// trace-event JSON, sampler time-series JSON) and reduce them to the
// views a perf investigation starts from — hottest rules and ops,
// per-phase breakdowns, and a thresholded two-file diff.

// MetricsFile is a parsed flat metrics JSON document.
type MetricsFile struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// ReadMetricsFile loads a -metrics file.
func ReadMetricsFile(path string) (MetricsFile, error) {
	var mf MetricsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return mf, fmt.Errorf("%s: %w", path, err)
	}
	if mf.Metrics == nil {
		return mf, fmt.Errorf("%s: no \"metrics\" object", path)
	}
	return mf, nil
}

// RuleCost is one rule's aggregate cost from a metrics file.
type RuleCost struct {
	Key          string // datalog.rule.NNN
	Seconds      float64
	Applications float64
	// Tuples is the rule's .tuples counter; Counted reports whether the
	// file carried one (solvers export it only with CountRuleTuples).
	Tuples  float64
	Counted bool
}

var ruleSecRe = regexp.MustCompile(`^(datalog\.rule\.\d+)\.sec$`)

// TopRules extracts per-rule timers (datalog.rule.NNN.sec/.count and
// the optional .tuples counters) and returns the k most expensive by
// cumulative seconds. k <= 0 returns all.
func TopRules(vals map[string]float64, k int) []RuleCost {
	var out []RuleCost
	for key, v := range vals {
		m := ruleSecRe.FindStringSubmatch(key)
		if m == nil {
			continue
		}
		base := m[1]
		tuples, counted := vals[base+".tuples"]
		out = append(out, RuleCost{
			Key:          base,
			Seconds:      v,
			Applications: vals[base+".count"],
			Tuples:       tuples,
			Counted:      counted,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// OpCount is one plan-op kind's execution count.
type OpCount struct {
	Key   string
	Count float64
}

// TopOps extracts the datalog.op.* execution counters (skipping
// derived histogram/cache sub-keys) sorted by count descending.
func TopOps(vals map[string]float64, k int) []OpCount {
	var out []OpCount
	for key, v := range vals {
		if !strings.HasPrefix(key, "datalog.op.") {
			continue
		}
		if strings.Count(key, ".") != 2 { // sub-keys like .result_nodes.p99
			continue
		}
		out = append(out, OpCount{Key: key, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// PhaseCost aggregates a Chrome trace's spans by name.
type PhaseCost struct {
	Name string
	// TotalUS sums the span durations; SelfUS excludes time spent in
	// nested spans. Count is the number of spans with this name.
	TotalUS, SelfUS int64
	Count           int
}

// ReadTracePhases parses a Chrome trace-event JSON stream (the obs
// ChromeTrace format: B/E pairs on one thread) and aggregates
// durations per span name.
func ReadTracePhases(r io.Reader) ([]PhaseCost, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	agg := make(map[string]*PhaseCost)
	get := func(name string) *PhaseCost {
		p := agg[name]
		if p == nil {
			p = &PhaseCost{Name: name}
			agg[name] = p
		}
		return p
	}
	type frame struct {
		name    string
		startUS int64
		childUS int64
	}
	var stack []frame
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			stack = append(stack, frame{name: e.Name, startUS: e.TS})
		case "E":
			if len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			d := e.TS - f.startUS
			p := get(f.name)
			p.TotalUS += d
			p.SelfUS += d - f.childUS
			p.Count++
			if len(stack) > 0 {
				stack[len(stack)-1].childUS += d
			}
		}
	}
	out := make([]PhaseCost, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// ReadTimeseries loads a sampler WriteJSON / /debug/timeseries dump.
func ReadTimeseries(r io.Reader) (intervalSec float64, samples []SamplePoint, err error) {
	var doc struct {
		IntervalSec float64       `json:"interval_sec"`
		Samples     []SamplePoint `json:"samples"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return 0, nil, err
	}
	return doc.IntervalSec, doc.Samples, nil
}

// DiffEntry is one key's change between two metrics files. Delta is
// the relative change (new-old)/|old|; it is ±Inf when the key
// appeared or the old value was zero.
type DiffEntry struct {
	Key      string
	Old, New float64
	// Delta is (New-Old)/|Old|.
	Delta float64
	// Missing marks keys present in only one file ("old" or "new").
	Missing string
	// Regression marks a change in the bad direction beyond the
	// threshold: cost-like keys (sec, us, nodes, bytes, …) going up,
	// goodness-like keys (qps, speedup, hit_ratio) going down.
	Regression bool
}

// Suffix classes deciding which direction of change is a regression.
var (
	goodSuffixes = []string{"qps", "speedup", "hit_ratio"}
	costSuffixes = []string{"sec", "_us", "_ms", "nodes", "bytes", "gcs", ".p50", ".p95", ".p99"}
)

func hasAnySuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}

// DiffMetrics compares two flat metric maps. Entries are returned for
// every key whose relative change meets threshold (e.g. 0.10 = 10%)
// and for keys present on only one side, sorted by |Delta| descending
// (missing keys last).
func DiffMetrics(oldVals, newVals map[string]float64, threshold float64) []DiffEntry {
	var out []DiffEntry
	for key, ov := range oldVals {
		nv, ok := newVals[key]
		if !ok {
			out = append(out, DiffEntry{Key: key, Old: ov, Missing: "new"})
			continue
		}
		if ov == nv {
			continue
		}
		var delta float64
		switch {
		case ov != 0:
			delta = (nv - ov) / abs(ov)
		case nv > 0:
			delta = math.Inf(1)
		default:
			delta = math.Inf(-1)
		}
		if abs(delta) < threshold {
			continue
		}
		e := DiffEntry{Key: key, Old: ov, New: nv, Delta: delta}
		switch {
		case hasAnySuffix(key, goodSuffixes):
			e.Regression = delta < 0
		case hasAnySuffix(key, costSuffixes):
			e.Regression = delta > 0
		}
		out = append(out, e)
	}
	for key, nv := range newVals {
		if _, ok := oldVals[key]; !ok {
			out = append(out, DiffEntry{Key: key, New: nv, Missing: "old"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := out[i].Missing != "", out[j].Missing != ""
		if mi != mj {
			return mj
		}
		di, dj := abs(out[i].Delta), abs(out[j].Delta)
		if di != dj {
			return di > dj
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ParseThreshold parses "10%", "0.1", or "10" (percent when > 1 or
// suffixed with %) into a fraction.
func ParseThreshold(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return 0, fmt.Errorf("bad threshold %q", s)
	}
	if pct || v > 1 {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("negative threshold %q", s)
	}
	return v, nil
}
