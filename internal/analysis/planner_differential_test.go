package analysis

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bddbddb/internal/extract"
	"bddbddb/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the all-algorithms golden relation digests")

// leakSrc is the TestMemoryLeakQuery program; the differential pins
// MemoryLeakQuerySrc to its second Node allocation.
const leakSrc = `
entry Main.main
class Node {
    field next
}
class Main {
    static method main(args) {
        cache = new Node
        leaked = new Node
        cache.next = leaked
        global.root = cache
    }
}
`

const securitySrc = `
entry Main.main
class java.lang.String {
    method chars() returns r {
        r = new java.lang.String
    }
}
class Key {
}
class Crypto {
    method init(k) {
    }
}
class Main {
    static method main(args) {
        s = new java.lang.String
        c = s.chars()
        x = new Crypto
        x.init(c)
        k = new Key
        y = new Crypto
        y.init(k)
    }
}
`

// relationDigest renders one relation as "<name> <cardinality>
// <sha256>" where the hash covers the relation's tuples, sorted
// numerically and written one per line as space-separated domain
// indices. Sorting makes the digest independent of BDD enumeration
// order, which follows each plan's physical bindings.
func relationDigest(r *Result, name string) string {
	rel := r.Solver.Relation(name)
	var rows [][]uint64
	rel.Iterate(func(vals []uint64) bool {
		rows = append(rows, append([]uint64(nil), vals...))
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	h := sha256.New()
	for _, row := range rows {
		for k, v := range row {
			if k > 0 {
				fmt.Fprint(h, " ")
			}
			fmt.Fprint(h, v)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%s %s %s", name, rel.Size(), hex.EncodeToString(h.Sum(nil)))
}

// readGolden parses the golden file into per-case digest lines.
func readGolden(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to record)", err)
	}
	out := map[string][]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, rest, _ := strings.Cut(line, " ")
		out[c] = append(out[c], rest)
	}
	return out
}

// TestPlannerDifferentialAllAlgorithms pins every analysis (Algorithms
// 1-8) and every Section 5 query to recorded results: for each relation
// the solve declares, its cardinality and a digest of its sorted
// tuples must match testdata/all_algorithms.golden. The file was
// recorded when the optimizing planner ran beside the textual-order
// legacy executor and both produced these exact relations, so it
// carries that differential forward. Rerun with -update only after an
// intended change to the analyses' results.
func TestPlannerDifferentialAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("solves all 13 algorithm and query cases")
	}
	prog := synth.Generate(synth.Quick)
	sf, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := facts(t, polySrc)
	lf := facts(t, leakSrc)
	var leakName string
	for h, name := range lf.Heaps {
		if h > 0 && lf.AllocMethod[h] >= 0 && name[len(name)-4:] == "Node" {
			leakName = name
		}
	}
	cf := facts(t, securitySrc)

	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"alg1-ci", func() (*Result, error) { return RunContextInsensitive(sf, false, Config{}) }},
		{"alg2-cif", func() (*Result, error) { return RunContextInsensitive(sf, true, Config{}) }},
		{"alg3-otf", func() (*Result, error) { return RunOnTheFly(sf, Config{}) }},
		{"alg5-cs", func() (*Result, error) { return RunContextSensitive(sf, nil, Config{}) }},
		{"alg5-csotf", func() (*Result, error) { return RunContextSensitiveOnTheFly(sf, Config{}) }},
		{"alg6-typeci", func() (*Result, error) { return RunTypeAnalysisCI(sf, Config{}) }},
		{"alg6-type", func() (*Result, error) { return RunTypeAnalysis(sf, nil, Config{}) }},
		{"alg7-threads", func() (*Result, error) { return RunThreadEscape(sf, nil, Config{}) }},
		{"alg8-heapcs", func() (*Result, error) { return RunHeapCloned(sf, nil, Config{}) }},
		{"q-leak", func() (*Result, error) {
			return RunContextSensitive(lf, nil, Config{ExtraSrc: MemoryLeakQuerySrc(leakName)})
		}},
		{"q-security", func() (*Result, error) {
			return RunContextSensitive(cf, nil, Config{ExtraSrc: SecurityQuerySrc("java.lang.String", "Crypto.init")})
		}},
		{"q-modref", func() (*Result, error) {
			return RunContextSensitive(pf, nil, Config{ExtraSrc: ModRefQuerySrc})
		}},
		{"q-refine", func() (*Result, error) {
			return RunContextInsensitive(pf, true, Config{ExtraSrc: TypeRefinementQuerySrc(RefineCIPointer)})
		}},
	}
	golden := filepath.Join("testdata", "all_algorithms.golden")
	got := map[string][]string{}
	for _, tc := range cases {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, name := range r.Solver.RelationNames() {
			got[tc.name] = append(got[tc.name], relationDigest(r, name))
		}
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# <case> <relation> <cardinality> <sha256 of sorted tuples>\n")
		for _, tc := range cases {
			for _, line := range got[tc.name] {
				fmt.Fprintf(&b, "%s %s\n", tc.name, line)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t, golden)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, w := got[tc.name], want[tc.name]
			if len(g) != len(w) {
				t.Fatalf("%d relations, golden has %d", len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Errorf("relation digest differs from %s:\n got %s\nwant %s", golden, g[i], w[i])
				}
			}
		})
	}
}
