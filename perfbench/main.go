// Command perfbench is the repository's benchmark: one workload per
// run, driven through the public entry points of every layer (gofront,
// extract, analysis, serve) with library-default configurations, its
// outputs checked against perfbench/expected.json.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json declares, in its
// units — the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1. The exit code is 0 only when every output check passed.
// A run whose pinned inputs or Go version differ from expected.json
// measures nothing and exits 2.
//
// --record rewrites the workload's entry of expected.json from this
// run instead of checking against it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bddbddb/internal/extract"
	"bddbddb/internal/program"
)

// A run sets its workload up at least minSetups times and for at
// least setupSeconds; setup_s is the median CPU time of one, so a
// set-up of a few milliseconds is timed often enough to be steady.
const (
	minSetups    = 5
	setupSeconds = 1.0
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (outcome, error){
	"go-types-cs":        runGo,
	"go-encoding-heapcs": runGo,
	"synth-fig4":         runSynth,
	"serve-json-mixed":   runServe,
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	check    *checker
	log      io.Writer // human-readable lines before the result
}

// outcome is what a workload run measured, by metric name.
type outcome struct {
	endToEnd  map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// expectedPath and manifestPath are expected.json and BENCHMARK.json,
// relative to the root of a checkout.
const (
	expectedPath = "perfbench/expected.json"
	manifestPath = "BENCHMARK.json"
)

func main() { os.Exit(run(os.Args[1:], expectedPath, manifestPath, os.Stdout, os.Stderr)) }

// run runs one workload, checked against the expected.json at expPath,
// reports the metrics the BENCHMARK.json at manPath declares, and
// returns the exit code.
func run(args []string, expPath, manPath string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs (request mix, deltas)")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	record := fs.Bool("record", false, "rewrite the workload's recorded outputs and pins instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	exp, err := loadExpected(expPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	man, err := loadManifest(manPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	version, err := goVersion()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	want := exp.Workloads[*workload]
	if *record {
		want = nil
		exp.GoVersion = version
	} else if version != exp.GoVersion || runtime.Version() != exp.GoVersion || want == nil {
		fmt.Fprintf(stderr, "perfbench: refusing to measure: toolchain %s, source tree %s, pinned %s (recorded workload: %t)\n",
			runtime.Version(), version, exp.GoVersion, want != nil)
		return 2
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, check: newChecker(want), log: stdout}
	out, err := runner(o)
	if errors.Is(err, errInputChanged) {
		fmt.Fprintf(stderr, "perfbench: refusing to measure: %v\n", err)
		return 2
	}
	if err != nil {
		o.check.failf("%v", err)
		out.attempted++
		out.failed++
	}
	reported := man.report(out, o.traced, o.check)
	for _, p := range o.check.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{
		Correct:   len(o.check.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   reported,
	}
	if *record && res.Correct {
		exp.Workloads[*workload] = o.check.got
		if err := exp.save(expPath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timeSetups runs setup repeatedly and returns the median CPU time
// of one.
func timeSetups(setup func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minSetups || time.Since(start).Seconds() < setupSeconds {
		cpu0 := cpuTime()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, (cpuTime() - cpu0).Seconds())
	}
	return median(ds), nil
}

// runPasses measures passes until the run's time is up (at least one;
// in a traced run at least one untraced and one traced, alternating),
// stopping at the first failed pass.
func runPasses(o opts, pass func(tr *spanSums) (passResult, error)) (plain, traced []passResult, err error) {
	start := time.Now()
	for i := 0; ; i++ {
		var tr *spanSums
		if o.traced && i%2 == 1 {
			tr = newSpanSums()
		}
		p, err := pass(tr)
		if err != nil {
			return plain, traced, err
		}
		fmt.Fprintf(o.log, "pass %d: wall %.3f s, cpu %.3f s, peak rss %.1f MB, traced %t\n", i+1, p.wall.Seconds(), p.cpu.Seconds(), p.rssMB, tr != nil)
		if tr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		if time.Since(start).Seconds() >= o.seconds && (!o.traced || len(traced) > 0) {
			return plain, traced, nil
		}
	}
}

// batchOutcome turns a batch workload's passes into its metrics: the
// end-to-end ones from the untraced passes; the per-layer medians,
// the tracing overhead and the layer-span coverage from the traced
// ones. It fails the run when the layer spans do not cover a traced
// pass to within 5%.
func batchOutcome(o opts, setupS float64, plain, traced []passResult, extra map[string]float64) outcome {
	out := outcome{attempted: len(plain) + len(traced), endToEnd: map[string]float64{}}
	var walls, cpus, rss []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
	}
	out.endToEnd["setup_s"] = setupS
	out.endToEnd["cpu_s"] = median(cpus)
	out.endToEnd["peak_rss_mb"] = median(rss)
	if !o.traced {
		return out
	}
	// Tracing does not change bdd.peak_live_nodes, so every pass of the
	// run counts towards its range.
	var layerSamples, all []map[string]float64
	for _, p := range plain {
		all = append(all, p.layers)
	}
	var tWalls, covered []float64
	for _, p := range traced {
		layerSamples = append(layerSamples, p.layers)
		all = append(all, p.layers)
		tWalls = append(tWalls, p.wall.Seconds())
		cov := p.covered.Seconds() / p.wall.Seconds()
		if cov < 0.95 || cov > 1.05 {
			o.check.failf("layer spans cover %.1f%% of a traced pass, want 95-105%%", 100*cov)
		}
		covered = append(covered, cov)
	}
	layers := medianOf(layerSamples)
	for k, v := range extra {
		layers[k] = v
	}
	setPeakRange(layers, all)
	layers["wall_s"] = median(walls)
	layers["trace.wall_s"] = median(tWalls)
	layers["trace.overhead_s"] = median(tWalls) - median(walls)
	layers["trace.layer_coverage"] = median(covered)
	out.layers = layers
	return out
}

// setPeakRange reports how far bdd.peak_live_nodes ranged over
// samples of identical work: the count varies between them.
func setPeakRange(layers map[string]float64, samples []map[string]float64) {
	var peaks []float64
	for _, s := range samples {
		if v, ok := s["bdd.peak_live_nodes"]; ok {
			peaks = append(peaks, v)
		}
	}
	if len(peaks) > 0 {
		sort.Float64s(peaks)
		layers["bdd.peak_live_nodes.range"] = peaks[len(peaks)-1] - peaks[0]
	}
}

func runGo(o opts) (outcome, error) {
	spec := goSpecs[o.workload]
	setupS, err := timeSetups(func() error { return o.check.pin(spec.pattern) })
	if err != nil {
		return outcome{}, err
	}
	var last *goPass
	plain, traced, err := runPasses(o, func(tr *spanSums) (passResult, error) {
		last = nil // so every pass starts from the same heap
		p, g, err := runGoPass(spec, o.check, tr)
		if g != nil {
			last = g
		}
		return p, err
	})
	out := batchOutcome(o, setupS, plain, traced, nil)
	if err != nil {
		return out, err
	}
	return out, checkGo(spec, last, o.check)
}

func runSynth(o opts) (outcome, error) {
	var progs []*program.Program
	setupS, err := timeSetups(func() (err error) {
		progs, err = generateSynth(synthNames)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var facts []*extract.Facts
	plain, traced, err := runPasses(o, func(tr *spanSums) (passResult, error) {
		facts = nil // so every pass starts from the same heap
		p, f, err := synthPass(synthNames, progs, o.check, tr)
		if f != nil {
			facts = f
		}
		return p, err
	})
	out := batchOutcome(o, setupS, plain, traced, map[string]float64{"synth.generate_s": setupS})
	if err != nil {
		return out, err
	}
	return out, checkSynth(synthNames, facts, o.check)
}

func runServe(o opts) (outcome, error) {
	var d *daemon
	var setupLayers []map[string]float64
	setupS, err := timeSetups(func() error {
		if d != nil {
			d.srv.Close()
		}
		var tr *spanSums
		if o.traced {
			tr = newSpanSums()
		}
		var err error
		d, err = setupDaemon(o.check, tr)
		if err == nil {
			setupLayers = append(setupLayers, d.layers)
		}
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	defer d.srv.Close()
	if !o.check.count("pairs", fmt.Sprint(len(d.pairs))) || !o.check.digest("pairs", pairDigest(d.pairs, d.facts)) {
		return outcome{attempted: 1, failed: 1}, nil
	}

	settle()
	resetPeakRSS()
	load := runLoad(d, o.seed, o.seconds)
	rss := peakRSSMB()
	fmt.Fprintln(o.log, load.summary())

	out := outcome{endToEnd: map[string]float64{}, attempted: len(load.reads) + len(load.writes)}
	for _, e := range load.errs {
		o.check.failf("%s", e)
		out.failed++
	}
	out.endToEnd["setup_s"] = setupS
	out.endToEnd["cpu_s"] = median(load.cpu)
	out.endToEnd["peak_rss_mb"] = rss
	out.layers = medianOf(setupLayers)
	setPeakRange(out.layers, setupLayers)
	out.layers["wall_s"] = median(load.rounds)
	for k, v := range loadLayers(load) {
		out.layers[k] = v
	}
	updates := 0
	for _, w := range load.writes {
		if w.ok {
			updates++
		}
	}
	out.attempted++ // the final, checked update
	return out, checkDaemon(d, o.seed, updates, o.check)
}
