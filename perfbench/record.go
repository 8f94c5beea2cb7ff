package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is the run record written for every run: the environment that
// produced it, the workload, seed and run length, and every measurement.
type record struct {
	Schema     int                  `json:"schema"`
	Host       string               `json:"host"`
	NProc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Revision   string               `json:"revision"`
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      int                  `json:"trace"`
	Started    string               `json:"started"`
	E2E        map[string]float64   `json:"e2e"`
	Info       map[string]float64   `json:"info"`
	Layers     map[string]float64   `json:"layers"`
	Samples    map[string][]float64 `json:"samples"`
	SelfMS     map[string]float64   `json:"self_ms,omitempty"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures"`
}

const recordSchema = 1

func newRecord(workload string, seed int64, seconds, trace int) *record {
	host, _ := os.Hostname()
	return &record{
		Schema: recordSchema, Host: host, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: revision(), Workload: workload, Seed: seed, Seconds: seconds,
		Trace: trace, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// revision names the source under test: the git commit when the
// working directory is the top of a git work tree, otherwise a digest of
// the Go sources (benchmark checkouts are plain file trees). Git is not
// consulted otherwise, so nothing outside the checkout is read.
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			if rev := strings.TrimSpace(string(out)); rev != "" {
				return rev
			}
		}
	}
	return treeDigest(".")
}

// treeDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping build outputs.
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		n := d.Name()
		if !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// write validates the record and stores it as <workdir>/records/<id>.json.
// A metric without samples (NaN) is left out; JSON has no NaN.
func (r *record) write(workdir, id string) error {
	for _, m := range []map[string]float64{r.E2E, r.Info, r.Layers, r.SelfMS} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				delete(m, k)
			}
		}
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := checkRecord(raw); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	dir := filepath.Join(workdir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".json"), raw, 0o644)
}

// checkRecord is the run-record schema check.
func checkRecord(raw []byte) error {
	var r record
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return err
	}
	switch {
	case r.Schema != recordSchema:
		return fmt.Errorf("schema %d, want %d", r.Schema, recordSchema)
	case r.Host == "" || r.GoVersion == "" || r.Revision == "" || r.Started == "":
		return fmt.Errorf("missing host, go version, revision or start time")
	case r.NProc < 1 || r.GOMAXPROCS < 1:
		return fmt.Errorf("nproc %d, gomaxprocs %d", r.NProc, r.GOMAXPROCS)
	case workloads[r.Workload] == nil:
		return fmt.Errorf("unknown workload %q", r.Workload)
	case r.Seconds < 1 || r.Trace < 0 || r.Trace > 1:
		return fmt.Errorf("seconds %d, trace %d", r.Seconds, r.Trace)
	case r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted || len(r.Failures) > r.Failed:
		return fmt.Errorf("attempted %d, failed %d, %d failure lines", r.Attempted, r.Failed, len(r.Failures))
	}
	if r.Trace == 1 {
		for _, m := range layerMetrics {
			if v, ok := r.Layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("per-layer metric %s missing or not finite", m.Name)
			}
		}
		return nil
	}
	for _, m := range e2eMetrics {
		if v, ok := r.E2E[m.Name]; !ok || math.IsNaN(v) || v <= 0 {
			return fmt.Errorf("end-to-end metric %s missing or not positive", m.Name)
		}
	}
	return nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkBenchmarkFile is the BENCHMARK.json schema check: the field
// limits of the file format, plus agreement with the metrics and
// workloads this program reports.
func checkBenchmarkFile(raw []byte) error {
	if len(raw) > 64<<10 {
		return fmt.Errorf("file is %d bytes", len(raw))
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return err
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		return fmt.Errorf("command has %d entries", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command entry %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		return fmt.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) || seen[n] {
			return fmt.Errorf("name %q invalid or repeated", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range b.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if workloads[w.Name] == nil {
			return fmt.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(e2eMetrics) {
		return fmt.Errorf("%d end_to_end metrics, program reports %d", n, len(e2eMetrics))
	}
	setup := false
	for i, m := range b.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Name != e2eMetrics[i].Name || m.Unit != e2eMetrics[i].Unit || !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("end_to_end[%d] = %s %s, program reports %s %s",
				i, m.Name, m.Unit, e2eMetrics[i].Name, e2eMetrics[i].Unit)
		}
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("setup_s (s, lower) missing")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(layerMetrics) {
		return fmt.Errorf("%d per_layer metrics, program reports %d", n, len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit || !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("per_layer[%d] = %s %s, program reports %s %s",
				i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	return nil
}
