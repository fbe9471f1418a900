package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{1000, 99, true}, // 10 samples above p99
		{999, 90, true},  // only 9 above p99
		{100, 90, true},  // exactly 10 above p90
		{99, 75, true},   // 9 above p90, 24 above p75
		{40, 75, true},   // 10 above p75
		{39, 0, false},   // 9 above p75
		{0, 0, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, 99, 90, 75)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.wantOK)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	s := summarize(xs)
	if s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summary tail = p%v %v, want p90 90", s.TailP, s.Tail)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		got := [3]float64{s.Q1, s.Med, s.Q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Med) {
		t.Errorf("median of no samples = %v, want NaN", s.Med)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 80 * ms, End: 90 * ms},
		{ID: 5, Parent: 2, Start: 15 * ms, End: 20 * ms}, // grandchild: ignored
	}
	if got := selfTime(spans, 1); got != 40*ms { // 100 - (10..60 ∪ 80..90)
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(spans, 2); got != 25*ms {
		t.Errorf("self time of span 2 = %v, want 25ms", got)
	}
}

func TestSameRowsIgnoresColumnAndRowOrder(t *testing.T) {
	a, b := workflow.Attr{Rel: "R", Col: "a"}, workflow.Attr{Rel: "R", Col: "b"}
	want := &data.Table{Attrs: []workflow.Attr{a, b}, Rows: []data.Row{{1, 2}, {3, 4}, {3, 4}}}
	same := &data.Table{Attrs: []workflow.Attr{b, a}, Rows: []data.Row{{4, 3}, {2, 1}, {4, 3}}}
	if err := sameRows(same, want); err != nil {
		t.Errorf("permuted table: %v", err)
	}
	diff := &data.Table{Attrs: []workflow.Attr{b, a}, Rows: []data.Row{{4, 3}, {2, 1}, {2, 1}}}
	if err := sameRows(diff, want); err == nil {
		t.Error("different multiset accepted")
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every named metric is emitted with its unit and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) { smoke(t, name, trace) })
		}
	}
}

func smoke(t *testing.T, name, trace string) {
	var out, errOut bytes.Buffer
	code := runMain([]string{"--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", trace}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d\n%s", got.Correct, got.Failed, got.Attempted, out.String())
	}
	if !strings.Contains(out.String(), "# error_rate 0 ") {
		t.Errorf("error_rate is not 0")
	}
	defs := endToEnd
	if trace == "1" {
		defs = perLayer
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps perfbench's metric and workload lists in step
// with the repository's BENCHMARK.json.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], perfbench %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to perfbench", w.Name)
		}
	}
}
