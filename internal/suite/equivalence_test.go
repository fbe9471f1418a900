package suite

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// engineConfig is one interpreter × worker-count combination.
type engineConfig struct {
	name    string
	rowMode bool
	workers int
}

// engineConfigs enumerates every configuration the contract covers: the
// reference row interpreter, then the columnar interpreter sequential and
// with worker-parallel block scheduling. The reference (first) is the
// golden every other leg is diffed against.
var engineConfigs = []engineConfig{
	{"row batch w1", true, 1},
	{"vec batch w1", false, 1},
	{"vec batch w4", false, 4},
}

// runConfig executes one compiled plan under one engine configuration.
func runConfig(cfg engineConfig, an *workflow.Analysis, db engine.DB, res *css.Result, observe []stats.Stat, metrics bool, inj *faults.Injector) (*engine.Result, error) {
	e := engine.New(an, db, nil)
	e.RowMode, e.Workers, e.CollectMetrics, e.Faults = cfg.rowMode, cfg.workers, metrics, inj
	return e.RunObserved(res, observe)
}

// TestEngineEquivalenceGolden is the cross-interpreter contract check: over
// every suite workflow, the columnar interpreter — sequential and with
// worker-parallel block scheduling — must produce sinks, materialized
// tables, observed statistics and work metric identical to the reference
// row interpreter's from one compiled physical plan. Any divergence means
// an interpreter strayed from the shared IR's semantics. A second pass
// repeats the matrix with metrics collection off, since the columnar path
// skips per-node accounting entirely in that mode.
func TestEngineEquivalenceGolden(t *testing.T) {
	const scale = 0.001
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := w.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := res.ObservableStats()
			db := w.Data(scale)

			for _, metrics := range []bool{true, false} {
				ref, err := runConfig(engineConfigs[0], an, db, res, observe, metrics, nil)
				if err != nil {
					t.Fatalf("%s (metrics=%v): %v", engineConfigs[0].name, metrics, err)
				}
				for _, cfg := range engineConfigs[1:] {
					if raceDetector && cfg.workers == 1 {
						// Under the race detector only the worker-parallel
						// legs can race; the sequential ones run in the
						// unraced test job and would push this package past
						// its timeout on single-core hosts.
						continue
					}
					got, err := runConfig(cfg, an, db, res, observe, metrics, nil)
					if err != nil {
						t.Fatalf("%s (metrics=%v): %v", cfg.name, metrics, err)
					}
					diffResults(t, fmt.Sprintf("%s (metrics=%v)", cfg.name, metrics), ref, got)
				}
			}
		})
	}
}

// diffResults asserts two engine results are externally identical. Row
// order within a table is not part of the contract, so tables compare as
// multisets.
func diffResults(t *testing.T, label string, ref, got *engine.Result) {
	t.Helper()
	if len(ref.Sinks) != len(got.Sinks) {
		t.Errorf("%s: sink count %d vs %d", label, len(got.Sinks), len(ref.Sinks))
	}
	for name, tbl := range ref.Sinks {
		if !sameTable(tbl, got.Sinks[name]) {
			t.Errorf("%s: sink %q differs", label, name)
		}
	}
	if len(ref.Materialized) != len(got.Materialized) {
		t.Errorf("%s: materialized count %d vs %d", label, len(got.Materialized), len(ref.Materialized))
	}
	for name, tbl := range ref.Materialized {
		if !sameTable(tbl, got.Materialized[name]) {
			t.Errorf("%s: materialized %q differs", label, name)
		}
	}
	if got.Rows != ref.Rows {
		t.Errorf("%s: work metric %d, want %d", label, got.Rows, ref.Rows)
	}
	diffStores(t, label, ref.Observed, got.Observed)
	diffMetrics(t, label, ref.Metrics, got.Metrics)
}

// diffMetrics compares the deterministic projection of two metrics
// snapshots: node identity and row counts must be bit-identical across
// interpreters and worker counts (timings and call counts are excluded
// from the contract).
func diffMetrics(t *testing.T, label string, ref, got *physical.RunMetrics) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Errorf("%s: one result has no metrics", label)
		return
	}
	if ref == nil {
		return
	}
	if len(got.Nodes) != len(ref.Nodes) {
		t.Errorf("%s: metrics node count %d, want %d", label, len(got.Nodes), len(ref.Nodes))
		return
	}
	for i, rn := range ref.Nodes {
		gn := got.Nodes[i]
		if gn.Block != rn.Block || gn.Node != rn.Node || gn.Op != rn.Op || gn.Label != rn.Label {
			t.Errorf("%s: metrics node %d identity %v/%v %q, want %v/%v %q",
				label, i, gn.Block, gn.Node, gn.Op, rn.Block, rn.Node, rn.Op)
			continue
		}
		if gn.RowsIn != rn.RowsIn || gn.RowsOut != rn.RowsOut {
			t.Errorf("%s: metrics node %d (%s %q) rows %d→%d, want %d→%d",
				label, i, gn.Op, gn.Label, gn.RowsIn, gn.RowsOut, rn.RowsIn, rn.RowsOut)
		}
	}
}

// diffStores compares two observation stores value by value.
func diffStores(t *testing.T, label string, ref, got *stats.Store) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Errorf("%s: one result has no observations", label)
		return
	}
	if ref == nil {
		return
	}
	if got.Len() != ref.Len() {
		t.Errorf("%s: store sizes differ: %d vs %d", label, got.Len(), ref.Len())
	}
	for _, v := range ref.Values() {
		// Sketch shapes are part of the merge contract at the byte level:
		// register-max and counter-add merges are order-independent, so any
		// engine at any worker count must land on identical state.
		if v.HLL != nil {
			g, err := got.HLLSketch(v.Stat)
			if err != nil {
				t.Errorf("%s: hll %v: %v", label, v.Stat.Key(), err)
				continue
			}
			if g.P != v.HLL.P || !bytes.Equal(g.Regs, v.HLL.Regs) {
				t.Errorf("%s: hll %v registers differ", label, v.Stat.Key())
			}
			continue
		}
		if v.CM != nil {
			g, err := got.CMSketch(v.Stat)
			if err != nil {
				t.Errorf("%s: cm %v: %v", label, v.Stat.Key(), err)
				continue
			}
			if g.Spec != v.CM.Spec || g.Depth != v.CM.Depth || g.Width != v.CM.Width {
				t.Errorf("%s: cm %v layout differs", label, v.Stat.Key())
				continue
			}
			same := len(g.Counters) == len(v.CM.Counters)
			for i := 0; same && i < len(g.Counters); i++ {
				same = g.Counters[i] == v.CM.Counters[i]
			}
			if !same {
				t.Errorf("%s: cm %v counters differ", label, v.Stat.Key())
			}
			continue
		}
		if v.Hist == nil {
			g, err := got.Scalar(v.Stat)
			if err != nil || g != v.Scalar {
				t.Errorf("%s: scalar %v = %d, want %d (%v)", label, v.Stat.Key(), g, v.Scalar, err)
			}
			continue
		}
		h, err := got.Hist(v.Stat)
		if err != nil || h.Buckets() != v.Hist.Buckets() || h.Total() != v.Hist.Total() {
			t.Errorf("%s: hist %v differs", label, v.Stat.Key())
			continue
		}
		same := true
		v.Hist.Each(func(vals []int64, f int64) {
			if h.Freq(vals...) != f {
				same = false
			}
		})
		if !same {
			t.Errorf("%s: hist %v bucket mismatch", label, v.Stat.Key())
		}
	}
}

// sameTable compares two tables as row multisets.
func sameTable(a, b *data.Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	ka, kb := rowKeys(a), rowKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func rowKeys(tbl *data.Table) []string {
	keys := make([]string, len(tbl.Rows))
	for i, r := range tbl.Rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d,", v)
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}

// TestMaxRowsGuard pins the intermediate-cardinality guard on the suite's
// known blowup case: wf24's Zipf-skewed join keys collide on hot values, so
// at larger scales its chain joins multiply far beyond the independence
// estimate. The engine must abort promptly with the guard's error instead
// of materializing the blowup, sequential and worker-parallel.
func TestMaxRowsGuard(t *testing.T) {
	w := MustGet(24)
	an, err := w.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	db := w.Data(0.01)
	const limit = 500_000
	for _, tc := range []struct {
		label string
		run   func() (*engine.Result, error)
	}{
		{"batch w1", func() (*engine.Result, error) {
			e := engine.New(an, db, nil)
			e.MaxRows = limit
			return e.Run()
		}},
		{"batch w4", func() (*engine.Result, error) {
			e := engine.New(an, db, nil)
			e.Workers, e.MaxRows = 4, limit
			return e.Run()
		}},
	} {
		_, err := tc.run()
		if err == nil {
			t.Errorf("%s: want a guard error, got success", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), "intermediate-cardinality guard") {
			t.Errorf("%s: error %q does not mention the guard", tc.label, err)
		}
	}
	// The guard must not trip where the budget is ample: the same workflow
	// at the suite's default scale stays far below the limit.
	small := w.Data(0.002)
	e := engine.New(an, small, nil)
	e.MaxRows = 100_000_000
	if _, err := e.Run(); err != nil {
		t.Errorf("ample budget: %v", err)
	}
}
