// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload for a fixed time and prints a report followed,
// as its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced rounds, records a span around every
// call into a layer, writes the spans as a Chrome trace under
// .bench_build/traces/, and the metrics are the per-layer ones. See
// NOTES.md for the workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload plan-wide --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports all
// of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s_p50", "s"},
	{"cycles_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics of a traced run; every workload reports all of
// them. Times and counts are per round, summed over the workload's
// workflows, unless NOTES.md says otherwise.
var perLayer = []metricDef{
	{"workflow.analyze_ms", "ms"},
	{"expr.enumerate_ms", "ms"},
	{"expr.ses", "count"},
	{"css.generate_ms", "ms"},
	{"css.allocs", "count"},
	{"css.stats", "count"},
	{"css.sets", "count"},
	{"selector.universe_ms", "ms"},
	{"selector.universe_allocs", "count"},
	{"selector.exact_ms", "ms"},
	{"selector.exact_nodes", "count"},
	{"selector.observed", "count"},
	{"estimate.derive_ms", "ms"},
	{"estimate.required", "count"},
	{"optimizer.optimize_ms", "ms"},
	{"physical.compile_ms", "ms"},
	{"physical.nodes", "count"},
	{"physical.taps", "count"},
	{"engine.observed_run_ms", "ms"},
	{"engine.plain_run_ms", "ms"},
	{"engine.tap_overhead", "ratio"},
	{"engine.optimized_run_ms", "ms"},
	{"engine.rows", "count"},
	{"engine.rows_per_s", "1/s"},
	{"engine.allocs_per_run", "count"},
	{"engine.mb_per_run", "MB"},
	{"stats.encode_ms", "ms"},
	{"stats.decode_ms", "ms"},
	{"stats.store_bytes", "bytes"},
	{"stats.drift_ms", "ms"},
	{"data.generate_ms", "ms"},
	{"data.wire_encode_ms", "ms"},
	{"data.wire_decode_ms", "ms"},
	{"data.wire_bytes", "bytes"},
	{"serve.hit_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.miss_wait_ms", "ms"},
	{"serve.catalog_put_ms", "ms"},
	{"serve.invalidations", "count"},
	{"serve.shed", "count"},
	{"serve.dispatch_ms", "ms"},
	{"serve.remote_blocks", "count"},
	{"serve.reassigned", "count"},
	{"serve.fell_back", "count"},
	{"core.residual_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"process.peak_rss_mb", "MB"},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workDir holds the run's scratch files (catalogs) and traces.
	workDir string
}

// environment is what a workload's set-up builds.
type environment interface {
	close()
	// dataMs is how long the set-up spent generating data.
	dataMs() float64
}

// setUp runs build at least three times, and more while set-ups are cheap
// (under a second in total, at most 15) so that a set-up of a few
// milliseconds still gets a steady median. Every environment but the last
// is closed; the last is returned with each set-up's seconds and data
// generation milliseconds.
func setUp[E environment](build func() (E, error)) (env E, secs, dataMs []float64, err error) {
	total := 0.0
	for i := 0; i < 3 || (i < 15 && total < 1); i++ {
		if i > 0 {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		env, err = build()
		d := time.Since(start).Seconds()
		if err != nil {
			env.close()
			return env, nil, nil, fmt.Errorf("setup: %w", err)
		}
		total += d
		secs = append(secs, d)
		dataMs = append(dataMs, env.dataMs())
	}
	return env, secs, dataMs, nil
}

// workload is one named benchmark scenario.
type workload interface {
	run(o options) (*result, error)
}

var workloads = map[string]func() workload{
	"plan-wide": func() workload {
		return &cycleWorkload{name: "plan-wide", ids: []int{21, 26, 30}, scale: 0.002, datasets: 1}
	},
	"exec-heavy": func() workload {
		return &cycleWorkload{name: "exec-heavy", ids: []int{3, 7, 23}, scale: 0.01, datasets: 8}
	},
	"dist-exec": func() workload {
		return &cycleWorkload{name: "dist-exec", ids: []int{3, 7, 13}, scale: 0.01, datasets: 1, dist: true}
	},
	"serve-drift": func() workload { return &serveWorkload{ids: []int{21, 26, 9}, scales: [2]float64{0.002, 0.02}} },
}

// result is what a run measured.
type result struct {
	attempted, failed int
	// firstFailure describes the first failed op, for the report.
	firstFailure string
	values       map[string]float64
	// samples keeps per-op or per-round series for the report context.
	samples map[string][]float64
	units   map[string]string
	notes   []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string][]float64{}, units: map[string]string{}}
}

// fail counts one failed op.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// sample appends to a report series.
func (r *result) sample(name, unit string, v float64) {
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; replaces every suite workflow's data seed")
	seconds := fs.Float64("seconds", 20, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	wd, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1, workDir: wd}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := mk().run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := finalLine(res, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	writeReport(stdout, *name, o, res, defs)
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finalLine renders the result object; a metric that is missing or not a
// finite number is an error, never a silently wrong figure.
func finalLine(res *result, defs []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(out), err
}

// writeReport prints the run's context: host, settings, every metric with
// its unit, and the sample count and quartiles of every series behind them.
func writeReport(w io.Writer, name string, o options, res *result, defs []metricDef) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "# host %s\n", hostFingerprint())
	fmt.Fprintf(w, "# peak_rss_mb %.1f\n", peakRSSMB())
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "# error_rate %g (%d failed of %d attempted)\n", rate, res.failed, res.attempted)
	if res.firstFailure != "" {
		fmt.Fprintf(w, "# first failure: %s\n", res.firstFailure)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "# metric %s %.6g %s\n", d.name, res.values[d.name], d.unit)
	}
	names := make([]string, 0, len(res.samples))
	for n := range res.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := summarize(res.samples[n])
		tail := "tail n/a (fewer than 10 samples beyond p90)"
		if s.TailP > 0 {
			tail = fmt.Sprintf("p%g=%.6g", s.TailP, s.Tail)
		}
		fmt.Fprintf(w, "# series %s [%s] n=%d q1=%.6g p50=%.6g q3=%.6g %s\n", n, res.units[n], s.N, s.Q1, s.Med, s.Q3, tail)
	}
	for _, note := range res.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
}
