// Command perfbench is the repository benchmark: it drives the PIPES
// engine only through its public facade (pipes.NewDSMS, RegisterStream,
// RegisterQuery, Start/Wait, Checkpoints.Trigger, RecoverLatest and the
// /v1/ HTTP API) on one of three workloads, checks every output against a
// reference run, and prints its metrics by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. See README.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload traffic-monitored -seed 1 -seconds 30 -trace 0
//
// -workload all runs the three workloads in turn, each ending with its
// own JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// e2eMetrics are the end-to-end metrics every workload reports (the
// BENCHMARK.json gate). infoMetrics are end-to-end metrics only some
// workloads measure: printed and recorded, not part of the gate.
var (
	e2eMetrics = []metricSpec{
		{"setup_s", "s"},
		{"ns_per_element", "ns"},
		{"cpu_us_per_element", "us"},
		{"heap_peak_mb", "MB"},
	}
	infoMetrics = []metricSpec{
		{"recovery_s", "s"},
		{"delivery_p50_ms", "ms"},
		{"delivery_p99_ms", "ms"},
		{"sustainable_rate_eps", "1/s"},
		{"submit_p50_ms", "ms"},
		{"submit_p90_ms", "ms"},
		{"shed_frac", "ratio"},
		{"failed_frac", "ratio"},
	}
	layerMetrics = []metricSpec{
		{"pubsub.elements_per_frame", "elem/frame"},
		{"pubsub.edge_elements_per_input", "ratio"},
		{"ops.filter.ns_per_element", "ns"},
		{"ops.map.ns_per_element", "ns"},
		{"ops.window.ns_per_element", "ns"},
		{"ops.groupby.ns_per_element", "ns"},
		{"ops.aggregate.ns_per_element", "ns"},
		{"sweeparea.join.ns_per_element", "ns"},
		{"sweeparea.join.state_bytes_peak", "bytes"},
		{"memory.usage_bytes_peak", "bytes"},
		{"memory.shed_events", "count"},
		{"sched.steals", "count"},
		{"sched.max_backlog", "count"},
		{"ft.rounds_sealed", "count"},
		{"ft.seal_wait_ms", "ms"},
		{"ft.barrier_stall_ms", "ms"},
		{"ft.phase_align_ms", "ms"},
		{"ft.phase_snapshot_ms", "ms"},
		{"ft.phase_encode_ms", "ms"},
		{"ft.phase_write_ms", "ms"},
		{"ft.full_bytes_per_round", "bytes"},
		{"ft.written_bytes_per_round", "bytes"},
		{"ft.delta_ratio", "ratio"},
		{"ft.rebuild_ms", "ms"},
		{"ft.recover_load_ms", "ms"},
		{"optimizer.operators", "count"},
		{"optimizer.shared_frac", "ratio"},
		{"service.poll_rtt_p50_ms", "ms"},
		{"service.poll_rtt_p99_ms", "ms"},
		{"service.empty_poll_frac", "ratio"},
		{"service.results_per_page", "count"},
		{"service.bytes_per_result", "bytes"},
		{"service.buffered_max", "count"},
		{"telemetry.scrape_ms", "ms"},
		{"telemetry.series", "count"},
		{"metadata.decorators", "count"},
		{"runtime.alloc_bytes_per_element", "bytes"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.late_max_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"traffic-monitored":    runTraffic,
	"nexmark-checkpointed": runNexmark,
	"service-fanout":       runFanout,
}

// watchdogSlack is how long past its measured time a run may take
// (generation, reference run, the last repetition) before the process
// gives up rather than hang.
const watchdogSlack = 120 * time.Second

// env is what a workload function gets: its seed, run length, whether this
// is the traced run, the failure accounting and the span recorder (nil
// when untraced).
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
	workdir string
	c       *checks
	sp      *spans
}

// result carries a workload's measurements.
type result struct {
	e2e     map[string]float64
	info    map[string]float64
	samples map[string]int
	raw     map[string][]float64 // per-repetition values behind each median
	layer   map[string]float64
	notes   []string
}

func newResult() *result {
	return &result{
		e2e: map[string]float64{}, info: map[string]float64{},
		samples: map[string]int{}, raw: map[string][]float64{}, layer: map[string]float64{},
	}
}

// setE2E records the median of xs as an end-to-end metric.
func (r *result) setE2E(name string, xs []float64) {
	r.e2e[name] = median(xs)
	r.samples[name] = len(xs)
	r.raw[name] = xs
}

func main() {
	workload := flag.String("workload", "", "workload: traffic-monitored, nexmark-checkpointed, service-fanout, or all to run each in turn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for run records, traces and checkpoint stores")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"traffic-monitored", "nexmark-checkpointed", "service-fanout"}
	}
	for _, name := range names {
		if err := run(name, *seed, *seconds, *trace, *workdir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

func run(workload string, seed int64, seconds, trace int, workdir string, stdout io.Writer) error {
	runWorkload, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, trace)
	}
	if err := os.MkdirAll(filepath.Join(workdir, "tmp"), 0o755); err != nil {
		return err
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)
	e := &env{
		seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1,
		nproc: runtime.NumCPU(), workdir: workdir, c: newChecks(),
	}
	if e.trace {
		e.sp = newSpans(runID)
	}
	rec := newRecord(workload, seed, seconds, trace)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d host=%s nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		workload, seed, seconds, trace, rec.Host, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Revision)

	watchdog := time.AfterFunc(e.seconds+watchdogSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s still running %v after its measured time; giving up\n", workload, watchdogSlack)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := runWorkload(e)
	if err != nil {
		return err
	}
	attempted, failed := e.c.attempted, e.c.failed
	if attempted == 0 {
		return fmt.Errorf("no operation was checked")
	}
	res.info["failed_frac"] = float64(failed) / float64(attempted)

	metrics := map[string]map[string]any{}
	if e.trace {
		for _, m := range layerMetrics {
			v := res.layer[m.Name] // a layer the workload bypasses reads 0
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.layer[m.Name] = v
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
		list := e.sp.snapshot()
		self := selfTimeMS(list)
		var layers []string
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(stdout, "self_ms %-10s %12.3f ms\n", l, self[l])
		}
		rec.SelfMS = self
		path := filepath.Join(workdir, "traces", runID+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(path, list); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(list), path)
	} else {
		for _, m := range e2eMetrics {
			v, ok := res.e2e[m.Name]
			if !ok || math.IsNaN(v) || v <= 0 {
				return fmt.Errorf("end-to-end metric %s not measured (%v)", m.Name, v)
			}
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}

	for _, n := range res.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	for _, m := range e2eMetrics {
		if v, ok := res.e2e[m.Name]; ok {
			fmt.Fprintf(stdout, "e2e %-22s %14.6g %-6s (median of %d)\n", m.Name, v, m.Unit, res.samples[m.Name])
		}
	}
	for _, m := range infoMetrics {
		if v, ok := res.info[m.Name]; ok {
			n := ""
			if s, ok := res.samples[m.Name]; ok {
				n = fmt.Sprintf("(n=%d)", s)
			}
			fmt.Fprintf(stdout, "e2e %-22s %14.6g %-6s %s\n", m.Name, v, m.Unit, n)
		} else {
			fmt.Fprintf(stdout, "e2e %-22s %14s %-6s (not measured on %s)\n", m.Name, "n/a", m.Unit, workload)
		}
	}
	if e.trace {
		for _, m := range layerMetrics {
			fmt.Fprintf(stdout, "layer %-34s %14.6g %s\n", m.Name, metrics[m.Name]["value"], m.Unit)
		}
	}
	fails := e.c.report()
	fmt.Fprintf(stdout, "checks: %d attempted, %d failed\n", attempted, failed)
	for _, f := range fails {
		fmt.Fprintln(stdout, "FAILED", f)
	}

	rec.E2E, rec.Info, rec.Layers, rec.Samples = res.e2e, res.info, res.layer, res.raw
	rec.Attempted, rec.Failed, rec.Failures = attempted, failed, fails
	if err := rec.write(workdir, runID); err != nil {
		return err
	}

	out := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(raw))
	return nil
}

// readAll reads and closes an HTTP response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
