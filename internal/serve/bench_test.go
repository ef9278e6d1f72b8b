package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/synth"
)

// benchSolver runs the context-insensitive analysis on the freetts
// synthetic benchmark — a realistic serving workload (hundreds of
// variables) rather than the unit tests' toy program.
func benchSolver(tb testing.TB) (*analysis.Result, []string) {
	tb.Helper()
	prog := synth.Generate(synth.BenchmarkByName("freetts").Params)
	facts, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := analysis.RunContextInsensitive(facts, true, analysis.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return res, facts.Vars
}

func benchServer(tb testing.TB, res *analysis.Result, replicas, cacheEntries int) *Server {
	tb.Helper()
	s, err := New(res.Solver, Config{Replicas: replicas, CacheEntries: cacheEntries, MaxInFlight: 256})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// serveOne drives one request straight through the handler stack
// (recorder, no sockets): both arms of the comparison then measure the
// server's own latency, not identical TCP/loopback overhead.
func serveOne(tb testing.TB, s *Server, path string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != 200 {
		tb.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}

// BenchmarkServeQuery measures end-to-end request latency over real
// HTTP, cold (cache disabled, every request is a BDD evaluation on a
// replica) against cached (every request after the first is an LRU
// lookup), across pool sizes. p50/p99 are reported as extra metrics.
func BenchmarkServeQuery(b *testing.B) {
	res, vars := benchSolver(b)
	for _, mode := range []struct {
		name    string
		entries int
	}{
		{"cold", -1},
		{"cached", 4096},
	} {
		for _, replicas := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, replicas), func(b *testing.B) {
				srv := benchServer(b, res, replicas, mode.entries)
				if mode.entries > 0 {
					for _, v := range vars {
						serveOne(b, srv, "/aliases?var="+v)
					}
				}
				var mu sync.Mutex
				var lats []time.Duration
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					var local []time.Duration
					for pb.Next() {
						v := vars[i%len(vars)]
						i++
						t0 := time.Now()
						serveOne(b, srv, "/aliases?var="+v)
						local = append(local, time.Since(t0))
					}
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
				})
				b.StopTimer()
				b.ReportMetric(float64(percentile(lats, 0.50).Microseconds()), "p50-µs")
				b.ReportMetric(float64(percentile(lats, 0.99).Microseconds()), "p99-µs")
			})
		}
	}
}

// TestWriteServeBench records the cold/cached serving numbers into the
// flat metrics file named by BENCH_SERVE_OUT and fails unless cached
// reads are at least 10× faster than cold ones. Gated behind the
// variable so the regular test run stays fast:
//
//	BENCH_SERVE_OUT=serve.json go test ./internal/serve -run TestWriteServeBench
func TestWriteServeBench(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("set BENCH_SERVE_OUT=path to record serving benchmarks")
	}
	res, vars := benchSolver(t)

	measure := func(s *Server, rounds int) []time.Duration {
		lats := make([]time.Duration, 0, rounds*len(vars))
		for r := 0; r < rounds; r++ {
			for _, v := range vars {
				t0 := time.Now()
				serveOne(t, s, "/aliases?var="+v)
				lats = append(lats, time.Since(t0))
			}
		}
		return lats
	}
	qps := func(lats []time.Duration) float64 {
		var total time.Duration
		for _, d := range lats {
			total += d
		}
		return float64(len(lats)) / total.Seconds()
	}

	coldSrv := benchServer(t, res, 4, -1)
	cold := measure(coldSrv, 5)

	cachedSrv := benchServer(t, res, 4, 4096)
	measure(cachedSrv, 1) // warm every key
	cached := measure(cachedSrv, 5)

	coldP50 := percentile(cold, 0.50)
	cachedP50 := percentile(cached, 0.50)
	speedup := float64(coldP50) / float64(cachedP50)
	vals := map[string]float64{
		"serve.cold.qps":       qps(cold),
		"serve.cold.p50_us":    float64(coldP50.Microseconds()),
		"serve.cold.p99_us":    float64(percentile(cold, 0.99).Microseconds()),
		"serve.cached.qps":     qps(cached),
		"serve.cached.p50_us":  float64(cachedP50.Microseconds()),
		"serve.cached.p99_us":  float64(percentile(cached, 0.99).Microseconds()),
		"serve.cached.speedup": speedup,
		"serve.replicas":       4,
		"serve.requests":       float64(len(cold) + len(cached)),
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteMetricsJSON(f, "serve", vals); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold p50 %v, cached p50 %v (%.1fx)", coldP50, cachedP50, speedup)
	if speedup < 10 {
		t.Errorf("cached speedup %.1fx, want >= 10x", speedup)
	}
}

// TestWriteObsBench records the serving percentiles as the daemon
// itself observes them — read back from the serve.latency.* histograms
// the request middleware feeds, not recomputed from caller-side
// stopwatches — into the flat metrics file named by BENCH_OBS_OUT. This
// exercises the full production observability path: middleware →
// lock-free histogram → registry snapshot → percentile estimation.
// Gated behind the variable:
//
//	BENCH_OBS_OUT=obs.json go test ./internal/serve -run TestWriteObsBench
func TestWriteObsBench(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("set BENCH_OBS_OUT=path to record observability benchmarks")
	}
	res, vars := benchSolver(t)

	drive := func(s *Server, rounds int) {
		for r := 0; r < rounds; r++ {
			for _, v := range vars {
				serveOne(t, s, "/aliases?var="+v)
			}
		}
	}
	newServer := func(reg *obs.Metrics, cacheEntries int) *Server {
		s, err := New(res.Solver, Config{
			Replicas: 4, CacheEntries: cacheEntries, MaxInFlight: 256,
			Metrics: reg, SampleInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	// Cold: cache disabled, every request is a replica evaluation, so
	// every 200 lands in the ...miss histogram.
	coldReg := obs.New()
	drive(newServer(coldReg, -1), 5)

	// Cached: warm every key once, then measure; the measured rounds all
	// land in the ...hit histogram.
	cachedReg := obs.New()
	cachedSrv := newServer(cachedReg, 4096)
	drive(cachedSrv, 6)

	coldVals := coldReg.Snapshot()
	cachedVals := cachedReg.Snapshot()
	const miss = "serve.latency.aliases.ci.miss"
	const hit = "serve.latency.aliases.ci.hit"
	if coldVals[miss+".count"] != float64(5*len(vars)) {
		t.Fatalf("cold miss histogram count = %v, want %d", coldVals[miss+".count"], 5*len(vars))
	}
	if cachedVals[hit+".count"] != float64(5*len(vars)) {
		t.Fatalf("cached hit histogram count = %v, want %d", cachedVals[hit+".count"], 5*len(vars))
	}
	coldP50 := coldVals[miss+".p50"]
	cachedP50 := cachedVals[hit+".p50"]
	if coldP50 <= 0 || cachedP50 <= 0 {
		t.Fatalf("histogram percentiles not recorded: cold p50 %v, cached p50 %v", coldP50, cachedP50)
	}
	vals := map[string]float64{
		"serve.obs.cold.p50_us":     coldP50 * 1e6,
		"serve.obs.cold.p99_us":     coldVals[miss+".p99"] * 1e6,
		"serve.obs.cold.requests":   coldVals[miss+".count"],
		"serve.obs.cached.p50_us":   cachedP50 * 1e6,
		"serve.obs.cached.p99_us":   cachedVals[hit+".p99"] * 1e6,
		"serve.obs.cached.requests": cachedVals[hit+".count"],
		"serve.obs.cached.speedup":  coldP50 / cachedP50,
		"serve.obs.replicas":        4,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteMetricsJSON(f, "serve_obs", vals); err != nil {
		t.Fatal(err)
	}
	t.Logf("histogram-path percentiles: cold p50 %.0fµs p99 %.0fµs; cached p50 %.0fµs p99 %.0fµs (%.1fx)",
		vals["serve.obs.cold.p50_us"], vals["serve.obs.cold.p99_us"],
		vals["serve.obs.cached.p50_us"], vals["serve.obs.cached.p99_us"], vals["serve.obs.cached.speedup"])
	if vals["serve.obs.cached.speedup"] < 2 {
		t.Errorf("cached speedup from histograms %.2fx, want >= 2x", vals["serve.obs.cached.speedup"])
	}
}
