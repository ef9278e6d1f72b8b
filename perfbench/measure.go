package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bddbddb/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// medianOf takes the per-key median over several samples of the same
// metric set; a key missing from some samples is the median of the
// samples that have it.
func medianOf(samples []map[string]float64) map[string]float64 {
	vals := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// settle collects garbage and returns freed memory to the OS, so each
// measured pass starts from the same heap and its peak RSS is its own.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuTime returns the CPU time this process has used, user plus
// system. On a shared virtual machine it leaves out the time the
// hypervisor ran other guests instead (steal time), which wall time
// counts and which varies from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of
// this process (Linux clear_refs "5"), so VmHWM afterwards is the
// peak of what follows. It reports whether the reset worked; where it
// does not, peakRSSMB is the process-lifetime peak.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the peak resident set size, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// spans times the benchmark's own calls into each layer. Every pass
// gets a fresh one; the sums become the per-layer "<layer>_s" metrics.
type spans map[string]time.Duration

// time runs f and adds its wall time to the named span.
func (s spans) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	s[name] += time.Since(start)
	return err
}

func (s spans) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// spanSums is the obs.Tracer the traced run passes through
// analysis.Config.Tracer: it sums the wall time of the spans the
// program already emits, by name. Spans nest per goroutine and the
// analysis pipeline emits them from one goroutine, so one stack
// suffices; the mutex only makes concurrent use safe.
type spanSums struct {
	mu    sync.Mutex
	stack []openSpan
	sums  map[string]time.Duration
}

type openSpan struct {
	name  string
	start time.Time
}

func newSpanSums() *spanSums { return &spanSums{sums: make(map[string]time.Duration)} }

func (t *spanSums) Begin(name string, _ ...obs.Arg) {
	t.mu.Lock()
	t.stack = append(t.stack, openSpan{name, time.Now()})
	t.mu.Unlock()
}

func (t *spanSums) End(_ ...obs.Arg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.sums[top.name] += time.Since(top.start)
}

func (t *spanSums) Instant(string, ...obs.Arg)         {}
func (t *spanSums) Counter(string, map[string]float64) {}

// programSpans maps the program's own span names to the per-layer
// metrics they feed.
var programSpans = map[string]string{
	"analysis.numbering":   "analysis.numbering_s",
	"analysis.compile":     "analysis.compile_s",
	"analysis.materialize": "analysis.materialize_s",
	"analysis.fill":        "analysis.fill_s",
	"op.JoinProject":       "datalog.op.join_project_s",
	"op.Reshape":           "datalog.op.reshape_s",
}

// addTo writes the traced program-span sums into out, in seconds.
// Spans that never opened are omitted, not reported as 0.
func (t *spanSums) addTo(out map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for span, name := range programSpans {
		if d, ok := t.sums[span]; ok {
			out[name] = d.Seconds()
		}
	}
}

// solveCounters aggregates the counters each analysis call exported
// into its own fresh obs.Metrics over one pass: counts and times are
// summed, peaks take the maximum, and cache hit ratios are computed
// from the summed hits and lookups. A counter no solve exported is
// absent, not 0.
type solveCounters struct {
	sums  map[string]float64
	peaks map[string]float64
}

// summed lists the exported counters that add up across solves, with
// the per-layer metric each feeds.
var summed = map[string]string{
	"datalog.solve.sec":         "datalog.solve_s",
	"datalog.iterations":        "datalog.iterations",
	"datalog.rule_applications": "datalog.rule_applications",
	"datalog.op.join_project":   "datalog.op.join_project",
	"datalog.op.reshape":        "datalog.op.reshape",
	"bdd.produced_nodes":        "bdd.produced_nodes",
	"bdd.gcs":                   "bdd.gcs",
	"bdd.gc_pause_sec":          "bdd.gc_pause_s",
	"bdd.grows":                 "bdd.grows",
}

// cacheNames are the BDD operation caches whose hit ratios are reported.
var cacheNames = []string{"apply", "appex", "replace"}

func newSolveCounters() *solveCounters {
	return &solveCounters{sums: make(map[string]float64), peaks: make(map[string]float64)}
}

// add folds one analysis call's registry into the pass totals.
func (c *solveCounters) add(m *obs.Metrics) {
	snap := m.Snapshot()
	for key, name := range summed {
		if v, ok := snap[key]; ok {
			c.sums[name] += v
		}
	}
	for _, cache := range cacheNames {
		for _, side := range []string{"hits", "misses"} {
			key := "bdd.cache." + cache + "." + side
			if v, ok := snap[key]; ok {
				c.sums[key] += v
			}
		}
	}
	if v, ok := snap["bdd.peak_live_nodes"]; ok {
		c.peaks["bdd.peak_live_nodes"] = math.Max(c.peaks["bdd.peak_live_nodes"], v)
	}
}

// addTo writes the aggregated per-layer metrics into out.
func (c *solveCounters) addTo(out map[string]float64) {
	for key, v := range c.sums {
		if !strings.HasPrefix(key, "bdd.cache.") {
			out[key] = v
		}
	}
	for _, cache := range cacheNames {
		hits, ok := c.sums["bdd.cache."+cache+".hits"]
		misses := c.sums["bdd.cache."+cache+".misses"]
		if ok && hits+misses > 0 {
			out["bdd.cache."+cache+".hit_ratio"] = hits / (hits + misses)
		}
	}
	for key, v := range c.peaks {
		out[key] = v
	}
}

// manifest is the part of BENCHMARK.json the result line follows: the
// declared metrics, each with its unit.
type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end or no per-layer metrics", path)
	}
	return &m, nil
}

// report returns the result line's metrics: untraced, every declared
// end-to-end metric, each of which the run must have measured; traced,
// every declared per-layer metric. A per-layer metric of a layer the
// workload never runs (serve on a batch workload, type analysis outside
// synth-fig4) is reported as 0: no time was spent and nothing counted
// there. Measured metrics the manifest does not declare are dropped.
func (m *manifest) report(out outcome, traced bool, c *checker) metrics {
	res := metrics{}
	if traced {
		for _, d := range m.PerLayer {
			res.set(d.Name, out.layers[d.Name], d.Unit)
		}
		return res
	}
	for _, d := range m.EndToEnd {
		v, ok := out.endToEnd[d.Name]
		if !ok {
			c.failf("end-to-end metric %s was not measured", d.Name)
		}
		res.set(d.Name, v, d.Unit)
	}
	return res
}
