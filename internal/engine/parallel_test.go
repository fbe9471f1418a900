package engine

import (
	"fmt"
	"sort"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// multiset renders a table as a sorted multiset of rows for
// order-insensitive comparison.
func multiset(t *data.Table) []string {
	out := make([]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		out = append(out, fmt.Sprint([]int64(r)))
	}
	sort.Strings(out)
	return out
}

func equalTables(a, b *data.Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	ma, mb := multiset(a), multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for i := range ma {
		if ma[i] != mb[i] {
			return false
		}
	}
	return true
}

// equalStores compares two observation stores value by value.
func equalStores(t *testing.T, a, b *stats.Store) bool {
	t.Helper()
	if a.Len() != b.Len() {
		t.Logf("store sizes differ: %d vs %d", a.Len(), b.Len())
		return false
	}
	for _, v := range a.Values() {
		if v.Hist == nil {
			got, err := b.Scalar(v.Stat)
			if err != nil || got != v.Scalar {
				t.Logf("scalar %v: %d vs %d (%v)", v.Stat.Key(), v.Scalar, got, err)
				return false
			}
			continue
		}
		h, err := b.Hist(v.Stat)
		if err != nil || h.Buckets() != v.Hist.Buckets() || h.Total() != v.Hist.Total() {
			t.Logf("hist %v differs", v.Stat.Key())
			return false
		}
		same := true
		v.Hist.Each(func(vals []int64, f int64) {
			if h.Freq(vals...) != f {
				same = false
			}
		})
		if !same {
			t.Logf("hist %v bucket mismatch", v.Stat.Key())
			return false
		}
	}
	return true
}

// equalResults compares every externally visible part of two engine
// results: sinks, materialized side tables, observed statistics and the
// work metric. Row order within tables is not part of the contract.
func equalResults(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	for name, tbl := range seq.Sinks {
		if !equalTables(tbl, par.Sinks[name]) {
			t.Errorf("%s: sink %q differs", label, name)
		}
	}
	if len(seq.Materialized) != len(par.Materialized) {
		t.Errorf("%s: materialized sets differ: %d vs %d", label, len(seq.Materialized), len(par.Materialized))
	}
	for name, tbl := range seq.Materialized {
		if !equalTables(tbl, par.Materialized[name]) {
			t.Errorf("%s: materialized %q differs", label, name)
		}
	}
	if (seq.Observed == nil) != (par.Observed == nil) {
		t.Errorf("%s: one result has no observations", label)
	} else if seq.Observed != nil && !equalStores(t, seq.Observed, par.Observed) {
		t.Errorf("%s: observed statistics differ", label)
	}
	if seq.Rows != par.Rows {
		t.Errorf("%s: work metric differs: %d vs %d", label, seq.Rows, par.Rows)
	}
}

// TestParallelMatchesSequentialRetail is the cheap smoke check: the retail
// workflow at Workers=4 must match Workers=1.
func TestParallelMatchesSequentialRetail(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	observe := res.ObservableStats()

	seqBatch, err := New(an, db, nil).RunObserved(res, observe)
	if err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	parBatch := New(an, db, nil)
	parBatch.Workers = 4
	outB, err := parBatch.RunObserved(res, observe)
	if err != nil {
		t.Fatalf("parallel batch: %v", err)
	}
	equalResults(t, "batch", seqBatch, outB)
}

// TestParallelMatchesSequentialFuzz is the harsh version of the check:
// random workflows (including multi-block ones with reject links and
// chains), observing everything observable, at several worker counts. The
// sequential columnar run is itself held to the reference row interpreter,
// covering workflow shapes the suite's equivalence golden does not.
func TestParallelMatchesSequentialFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(300); seed < 312; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{MaxCard: 90})
			an, err := workflow.Analyze(g, cat)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := res.ObservableStats()

			seqBatch, err := New(an, db, nil).RunObserved(res, observe)
			if err != nil {
				t.Fatalf("sequential batch: %v", err)
			}
			ref := New(an, db, nil)
			ref.RowMode = true
			refOut, err := ref.RunObserved(res, observe)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			equalResults(t, "batch vs reference", refOut, seqBatch)
			for _, w := range []int{2, 4} {
				eb := New(an, db, nil)
				eb.Workers = w
				outB, err := eb.RunObserved(res, observe)
				if err != nil {
					t.Fatalf("batch workers=%d: %v", w, err)
				}
				equalResults(t, fmt.Sprintf("batch workers=%d", w), seqBatch, outB)
			}
		})
	}
}

// multiBlockGraph builds a workflow whose analysis yields a block DAG with
// genuine parallelism: two independent source branches, each closed by a
// GroupBy (a block boundary), joined in a final block.
func multiBlockGraph() *workflow.Graph {
	b := workflow.NewBuilder("diamond")
	o := b.Source("Orders")
	g1 := b.GroupBy(o, workflow.Attr{Rel: "Orders", Col: "cid"})
	c := b.Source("Customer")
	g2 := b.GroupBy(c, workflow.Attr{Rel: "Customer", Col: "cid"})
	j := b.Join(g1, g2, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j, "out")
	return b.Graph()
}

// TestBlockDAGParallel checks the inter-block scheduler on a workflow whose
// first two blocks are mutually independent.
func TestBlockDAGParallel(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(multiBlockGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Blocks) < 3 {
		t.Fatalf("want a multi-block analysis, got %d blocks", len(an.Blocks))
	}
	plan, err := physical.Compile(an, db, physical.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	deps := blockDeps(plan)
	independent := 0
	for _, blk := range an.Blocks {
		if len(deps[blk.Index]) == 0 {
			independent++
		}
	}
	if independent < 2 {
		t.Fatalf("want >= 2 independent blocks, got %d", independent)
	}
	seq, err := New(an, db, nil).Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par := New(an, db, nil)
	par.Workers = 4
	out, err := par.Run()
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	equalResults(t, "dag", seq, out)
}

// TestParallelErrorDeterministic: when several blocks fail, the reported
// error must be the lowest-index block's, independent of completion order.
func TestParallelErrorDeterministic(t *testing.T) {
	db, cat := tinyDB()
	delete(db, "Orders")
	delete(db, "Customer")
	an, err := workflow.Analyze(multiBlockGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var first string
	for trial := 0; trial < 8; trial++ {
		e := New(an, db, nil)
		e.Workers = 4
		_, err := e.Run()
		if err == nil {
			t.Fatal("want error for missing relations")
		}
		if trial == 0 {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("error varies across runs: %q vs %q", first, err.Error())
		}
	}
}
