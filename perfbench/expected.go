package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// expected is perfbench/expected.json: the pinned inputs and the
// recorded outputs every run is checked against.
type expected struct {
	// GoVersion is the toolchain whose source tree the go-* and serve
	// workloads analyse, and which builds the benchmark.
	GoVersion string             `json:"go_version"`
	Workloads map[string]*record `json:"workloads"`
}

// record is one workload's pinned inputs and expected outputs. Every
// output is independent of BDD layout: exact tuple counts (decimal,
// since context-carrying relations exceed 2^64) and sha256 digests of
// sorted named (variable, heap) pairs.
type record struct {
	// Inputs maps a package pattern under GOROOT/src to the sha256 of
	// its Go source files (inputDigest).
	Inputs  map[string]string `json:"inputs,omitempty"`
	Counts  map[string]string `json:"counts"`
	Digests map[string]string `json:"digests"`
}

func newRecord() *record {
	return &record{Inputs: map[string]string{}, Counts: map[string]string{}, Digests: map[string]string{}}
}

// errInputChanged refuses a measurement on inputs other than the pinned ones.
var errInputChanged = errors.New("input differs from the pinned one")

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if e.Workloads == nil {
		e.Workloads = map[string]*record{}
	}
	return &e, nil
}

func (e *expected) save(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goroot is the toolchain source tree the workloads analyse.
func goroot() string {
	if r := os.Getenv("GOROOT"); r != "" {
		return r
	}
	return runtime.GOROOT()
}

// goVersion reads the version of the toolchain at goroot, e.g. "go1.24.0".
func goVersion() (string, error) {
	data, err := os.ReadFile(filepath.Join(goroot(), "VERSION"))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[0]), nil
}

// patternDir maps a package pattern ("go/types", "encoding/...") to
// the directory argument gofront.Lower takes.
func patternDir(pattern string) string {
	return filepath.Join(goroot(), "src", filepath.FromSlash(pattern))
}

// inputDigest hashes every non-test Go file a pattern can load: the
// pattern's directory, and with a trailing "/..." every directory
// below it except testdata and hidden ones. Each file contributes its
// path relative to GOROOT/src and its contents.
func inputDigest(pattern string) (string, error) {
	root, recursive := strings.CutSuffix(pattern, "/...")
	base := filepath.Join(goroot(), "src")
	dir := filepath.Join(base, filepath.FromSlash(root))
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("no Go files for %s", pattern)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(base, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checker compares a run's outputs with the recorded ones, collecting
// every mismatch; in record mode (want == nil) it only collects.
type checker struct {
	want     *record
	got      *record
	problems []string
}

func newChecker(want *record) *checker { return &checker{want: want, got: newRecord()} }

func (c *checker) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// pin hashes a pattern's inputs and refuses (errInputChanged) when
// they differ from the pinned digest.
func (c *checker) pin(pattern string) error {
	sum, err := inputDigest(pattern)
	if err != nil {
		return err
	}
	c.got.Inputs[pattern] = sum
	if c.want == nil {
		return nil
	}
	if want := c.want.Inputs[pattern]; want != sum {
		return fmt.Errorf("%w: %s has sha256 %s, pinned %q", errInputChanged, pattern, sum, want)
	}
	return nil
}

// count checks one exact count, given in decimal; it reports whether
// it matched.
func (c *checker) count(name, v string) bool {
	c.got.Counts[name] = v
	if c.want == nil {
		return true
	}
	return c.compare("count "+name, c.want.Counts, name, v)
}

// digest checks one sha256 digest; it reports whether it matched.
func (c *checker) digest(name, v string) bool {
	c.got.Digests[name] = v
	if c.want == nil {
		return true
	}
	return c.compare("digest "+name, c.want.Digests, name, v)
}

func (c *checker) compare(what string, want map[string]string, name, v string) bool {
	w, ok := want[name]
	switch {
	case !ok:
		c.failf("%s: no recorded value (got %s)", what, v)
	case w != v:
		c.failf("%s: got %s, recorded %s", what, v, w)
	default:
		return true
	}
	return false
}
