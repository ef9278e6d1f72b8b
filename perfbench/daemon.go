package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/serve"
)

// daemonPattern is the serve workload's pinned input.
const daemonPattern = "encoding/json"

// The closed loop runs in rounds of fixed work. A round's reads,
// roundReads of them, are drawn up front into one queue that both
// clients take from. Client 0 also issues the round's writes, taking
// writeGap reads before each; the writes follow roundWrites ('+' adds a
// fresh delta, alternately of 1 and 10 tuples; '-' removes the oldest
// delta still added), so every round removes all it adds and starts
// from the base facts. A round ends when the queue is empty and the
// writes are done. The mix is assumed, not taken from traffic:
// roundReads is sized so that the reads take somewhat more than half
// of a round's work on a 2-vCPU host, which keeps client 1 reading
// through every write and gives read and write cost each a real share
// of the round time.
const (
	roundReads  = 4800
	writeGap    = 30
	roundWrites = "++-+-+--"
)

// daemon is one set-up server with what the checks need.
type daemon struct {
	srv    *serve.Server
	live   *datalog.LiveSolver
	facts  *extract.Facts
	graph  *callgraph.Graph
	pairs  pairs
	layers map[string]float64
}

// setupDaemon builds the serving stack from source: lower, extract,
// discover, cs solve, analysis.Live and serve.New, as the daemon does
// at start-up.
func setupDaemon(c *checker, tr *spanSums) (*daemon, error) {
	if err := c.pin(daemonPattern); err != nil {
		return nil, err
	}
	g, err := solveGo(goSpec{pattern: daemonPattern}, tr)
	if err != nil {
		return nil, err
	}
	d := &daemon{facts: g.facts, graph: g.graph, pairs: g.r.PointsToPairs()}
	liveStart := time.Now()
	d.live, err = analysis.Live(g.r)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	liveS := time.Since(liveStart)
	cfg := serve.Config{Metrics: obs.New(), Updater: d.live}
	if tr != nil {
		cfg.Tracer = tr
	}
	newStart := time.Now()
	d.srv, err = serve.New(g.r.Solver, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	d.layers = g.layers(tr)
	d.layers["analysis.live_s"] = liveS.Seconds()
	d.layers["serve.new_s"] = time.Since(newStart).Seconds()
	d.layers["serve.snapshot_nodes"] = float64(d.srv.SnapshotNodes())
	return d, nil
}

// candidateVars lists the variables queries are drawn from, most
// popular first: every variable with a points-to target whose name a
// query can carry, in one fixed shuffled order. The ranking is the same
// for every seed, so seeds vary the request sequence, not which
// variables are hot.
func candidateVars(f *extract.Facts, ps pairs) []string {
	seen := make(map[uint64]bool)
	for p := range ps {
		seen[p[0]] = true
	}
	var out []string
	for v := range seen {
		name := f.Vars[v]
		if !strings.ContainsAny(name, "\"\n\r") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reads draws the read mix: /pointsto and /aliases over Zipf-chosen
// variables, and a small share of ad-hoc POST /query. The Zipf
// exponent (1.1) and the 48/48/4 split are assumed, not measured: no
// traffic of the daemon has been recorded.
type reads struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	vars []string
}

func newReads(seed int64, vars []string) *reads {
	rng := rand.New(rand.NewSource(seed))
	return &reads{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(vars)-1)), vars: vars}
}

func (r *reads) next() *http.Request {
	v := r.vars[r.zipf.Uint64()]
	switch x := r.rng.Intn(100); {
	case x < 48:
		return httptest.NewRequest(http.MethodGet, "/pointsto?var="+url.QueryEscape(v), nil)
	case x < 96:
		return httptest.NewRequest(http.MethodGet, "/aliases?var="+url.QueryEscape(v), nil)
	default:
		q := fmt.Sprintf(".relation q (field : F) output\nq(f) :- vPC(_, %q, h), hP(h, f, _).\n", v)
		return httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q))
	}
}

// deltas draws write deltas: novel input tuples over vP0, store, load
// and actual, by domain index, never already present.
type deltas struct {
	rng   *rand.Rand
	f     *extract.Facts
	taken map[string]map[[3]uint64]bool
}

// deltaRels are the input relations writes edit.
var deltaRels = []string{"vP0", "store", "load", "actual"}

func newDeltas(seed int64, f *extract.Facts) *deltas {
	d := &deltas{rng: rand.New(rand.NewSource(seed)), f: f, taken: map[string]map[[3]uint64]bool{}}
	base := map[string][]extract.Tuple{"vP0": f.VP0, "store": f.Store, "load": f.Load, "actual": f.Actual}
	for rel, ts := range base {
		d.taken[rel] = map[[3]uint64]bool{}
		for _, t := range ts {
			d.taken[rel][key(t)] = true
		}
	}
	return d
}

func key(t []uint64) [3]uint64 {
	var k [3]uint64
	copy(k[:], t)
	return k
}

// tuple draws one novel tuple of rel and marks it taken.
func (d *deltas) tuple(rel string) []uint64 {
	n := func(k int) uint64 { return uint64(d.rng.Intn(k)) }
	f := d.f
	for {
		var t []uint64
		switch rel {
		case "vP0":
			t = []uint64{n(len(f.Vars)), n(len(f.Heaps))}
		case "store", "load":
			t = []uint64{n(len(f.Vars)), n(len(f.Fields)), n(len(f.Vars))}
		case "actual":
			t = []uint64{n(len(f.Invokes)), n(int(f.ZSize)), n(len(f.Vars))}
		}
		if !d.taken[rel][key(t)] {
			d.taken[rel][key(t)] = true
			return t
		}
	}
}

// draw returns a delta of size tuples, spread round-robin over the
// edited relations from a random start.
func (d *deltas) draw(size int) map[string][][]uint64 {
	out := map[string][][]uint64{}
	first := d.rng.Intn(len(deltaRels))
	for i := 0; i < size; i++ {
		rel := deltaRels[(first+i)%len(deltaRels)]
		out[rel] = append(out[rel], d.tuple(rel))
	}
	return out
}

// release makes removed tuples drawable again.
func (d *deltas) release(ts map[string][][]uint64) {
	for rel, list := range ts {
		for _, t := range list {
			delete(d.taken[rel], key(t))
		}
	}
}

func wire(ts map[string][][]uint64) map[string][]datalog.WireTuple {
	out := map[string][]datalog.WireTuple{}
	for rel, list := range ts {
		for _, t := range list {
			wt := make(datalog.WireTuple, len(t))
			for i, v := range t {
				wt[i] = datalog.WireValue{Num: v}
			}
			out[rel] = append(out[rel], wt)
		}
	}
	return out
}

// readSample is one timed read.
type readSample struct {
	ms  float64
	hit bool
	ok  bool
}

// writeSample is one timed ApplyUpdate.
type writeSample struct {
	ms, resolveMs float64
	full, ok      bool
}

// serveLoad is what the closed loop measured.
type serveLoad struct {
	rounds []float64 // wall time of each round, seconds
	cpu    []float64 // CPU time of the process in each round, seconds
	reads  []readSample
	writes []writeSample
	busy   time.Duration // summed round time
	errs   []string
}

// read issues one request through the handler, with no socket.
func read(srv *serve.Server, req *http.Request) readSample {
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	ok := rec.Code == http.StatusOK && strings.HasPrefix(rec.Body.String(), "{")
	return readSample{ms: ms, hit: rec.Header().Get("X-Cache") == "hit", ok: ok}
}

// write applies one delta through Server.ApplyUpdate.
func write(srv *serve.Server, wd datalog.WireDelta) (writeSample, error) {
	start := time.Now()
	res, err := srv.ApplyUpdate(context.Background(), wd)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return writeSample{ms: ms}, err
	}
	return writeSample{ms: ms, resolveMs: float64(res.Stats.Duration.Nanoseconds()) / 1e6, full: res.Stats.Full, ok: true}, nil
}

// readQueue is one round's reads, taken by both clients.
type readQueue struct {
	reqs []*http.Request
	next atomic.Int64
}

// take issues up to n of the queue's reads (n < 0: until it is empty),
// appending samples to s and failures to errs.
func (q *readQueue) take(srv *serve.Server, n int, s []readSample, errs []string) ([]readSample, []string) {
	for ; n != 0; n-- {
		i := q.next.Add(1) - 1
		if i >= int64(len(q.reqs)) {
			break
		}
		r := read(srv, q.reqs[i])
		s = append(s, r)
		if !r.ok {
			errs = append(errs, "read "+q.reqs[i].URL.String()+" failed")
		}
	}
	return s, errs
}

// runLoad drives the closed loop for the given duration (at least one
// round).
func runLoad(d *daemon, seed int64, seconds float64) serveLoad {
	vars := candidateVars(d.facts, d.pairs)
	gen := newDeltas(seed+1, d.facts)
	rd := newReads(seed+2, vars)
	var load serveLoad
	for load.busy.Seconds() < seconds || len(load.rounds) == 0 {
		q := &readQueue{reqs: make([]*http.Request, roundReads)}
		for i := range q.reqs {
			q.reqs[i] = rd.next()
		}
		var reads1 []readSample
		var errs1 []string
		var client1 sync.WaitGroup
		roundStart, cpu0 := time.Now(), cpuTime()
		client1.Add(1)
		go func() {
			defer client1.Done()
			reads1, errs1 = q.take(d.srv, -1, nil, nil)
		}()

		var added []map[string][][]uint64
		adds := 0
		for _, op := range roundWrites {
			load.reads, load.errs = q.take(d.srv, writeGap, load.reads, load.errs)
			var wd datalog.WireDelta
			var removed map[string][][]uint64
			if op == '+' {
				ts := gen.draw([]int{1, 10}[adds%2])
				adds++
				added = append(added, ts)
				wd.Add = wire(ts)
			} else {
				if len(added) == 0 {
					continue // an earlier add failed
				}
				removed, added = added[0], added[1:]
				wd.Remove = wire(removed)
			}
			ws, err := write(d.srv, wd)
			load.writes = append(load.writes, ws)
			if err != nil {
				load.errs = append(load.errs, "update: "+err.Error())
				if op == '+' {
					added = added[:len(added)-1]
				}
				continue
			}
			gen.release(removed)
		}
		load.reads, load.errs = q.take(d.srv, -1, load.reads, load.errs)
		client1.Wait()
		round := time.Since(roundStart)
		load.rounds = append(load.rounds, round.Seconds())
		load.cpu = append(load.cpu, (cpuTime() - cpu0).Seconds())
		load.busy += round
		load.reads = append(load.reads, reads1...)
		load.errs = append(load.errs, errs1...)
	}
	return load
}

// checkDaemon applies one last delta outside the timed loop, then
// checks the final generation against a from-scratch solve of the base
// facts plus that delta (the earlier deltas were all removed again),
// and probe /pointsto answers against the from-scratch projection.
func checkDaemon(d *daemon, seed int64, updates int, c *checker) error {
	gen := newDeltas(seed+4, d.facts)
	last := gen.draw(10)
	if _, err := write(d.srv, datalog.WireDelta{Add: wire(last)}); err != nil {
		c.failf("final update: %v", err)
		return nil
	}
	if got, want := d.srv.Generation(), uint64(updates+2); got != want {
		c.failf("generation %d after %d updates, want %d", got, updates+1, want)
	}
	cfg := analysis.Config{PreSolve: func(s *datalog.Solver) error {
		for rel, ts := range last {
			r := s.Relation(rel)
			for _, t := range ts {
				r.AddTuple(t...)
			}
		}
		return nil
	}}
	fresh, err := analysis.RunContextSensitive(d.facts, d.graph, cfg)
	if err != nil {
		return fmt.Errorf("from-scratch check solve: %w", err)
	}
	want, err := fresh.Solver.ContentFingerprint()
	if err != nil {
		return err
	}
	got, err := d.live.Solver().ContentFingerprint()
	if err != nil {
		return err
	}
	if got != want {
		c.failf("live solver content %s differs from the from-scratch solve %s", got, want)
	}
	heapsOf := map[string]map[string]bool{}
	for p := range fresh.PointsToPairs() {
		v := d.facts.Vars[p[0]]
		if heapsOf[v] == nil {
			heapsOf[v] = map[string]bool{}
		}
		heapsOf[v][d.facts.Heaps[p[1]]] = true
	}
	vars := candidateVars(d.facts, d.pairs)
	for _, v := range vars[:min(16, len(vars))] { // the hottest, so cached answers are probed too
		rec := httptest.NewRecorder()
		d.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/pointsto?var="+url.QueryEscape(v), nil))
		var body struct {
			Outputs []struct {
				Tuples    []map[string]any `json:"tuples"`
				Truncated bool             `json:"truncated"`
			} `json:"outputs"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil || len(body.Outputs) != 1 || body.Outputs[0].Truncated {
			c.failf("probe /pointsto?var=%s: status %d", v, rec.Code)
			continue
		}
		answer := map[string]bool{}
		for _, t := range body.Outputs[0].Tuples {
			h, _ := t["heap"].(string)
			answer[h] = true
		}
		if !sameSet(answer, heapsOf[v]) {
			c.failf("probe /pointsto?var=%s: %d heaps, the solver projects %d", v, len(answer), len(heapsOf[v]))
		}
	}
	return nil
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// loadLayers summarizes the closed loop as per-layer metrics, each
// percentile with its sample count.
func loadLayers(load serveLoad) map[string]float64 {
	out := map[string]float64{}
	var all, hit, miss []float64
	for _, r := range load.reads {
		all = append(all, r.ms)
		if r.hit {
			hit = append(hit, r.ms)
		} else {
			miss = append(miss, r.ms)
		}
	}
	out["serve.reads"] = float64(len(all))
	out["serve.query_p50_ms"] = percentile(all, 0.50)
	out["serve.query_p99_ms"] = percentile(all, 0.99)
	out["serve.query_qps"] = float64(len(all)) / load.busy.Seconds()
	if len(all) > 0 {
		out["serve.cache_hit_ratio"] = float64(len(hit)) / float64(len(all))
	}
	if len(hit) > 0 {
		out["serve.query_hit_p50_ms"] = percentile(hit, 0.50)
	}
	if len(miss) > 0 {
		out["serve.query_miss_p50_ms"] = percentile(miss, 0.50)
	}
	var total, resolve, swap []float64
	full := 0
	for _, w := range load.writes {
		if !w.ok {
			continue
		}
		total = append(total, w.ms)
		resolve = append(resolve, w.resolveMs)
		swap = append(swap, w.ms-w.resolveMs)
		if w.full {
			full++
		}
	}
	out["serve.updates"] = float64(len(total))
	if len(total) > 0 {
		out["serve.update_p50_ms"] = percentile(total, 0.50)
		out["serve.update_p90_ms"] = percentile(total, 0.90)
		out["serve.update_resolve_ms"] = percentile(resolve, 0.50)
		out["serve.update_swap_ms"] = percentile(swap, 0.50)
		out["serve.update_full_ratio"] = float64(full) / float64(len(total))
	}
	return out
}

// summary is the human-readable daemon line printed before the result.
func (load serveLoad) summary() string {
	l := loadLayers(load)
	q := func(p float64) float64 { return percentile(load.rounds, p) }
	var readMs, writeMs float64
	for _, r := range load.reads {
		readMs += r.ms
	}
	for _, w := range load.writes {
		writeMs += w.ms
	}
	n := float64(len(load.rounds))
	return fmt.Sprintf("serve: %d rounds, round q1/q2/q3 %.3f/%.3f/%.3f s, per round %.0f ms in reads and %.0f ms in writes; reads %d p50 %.3f ms p99 %.3f ms, %.0f qps; updates %d p50 %.1f ms p90 %.1f ms",
		len(load.rounds), q(0.25), q(0.5), q(0.75), readMs/n, writeMs/n,
		len(load.reads), l["serve.query_p50_ms"], l["serve.query_p99_ms"], l["serve.query_qps"],
		len(load.writes), l["serve.update_p50_ms"], l["serve.update_p90_ms"])
}
