// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, plus the ablations DESIGN.md calls out and
// micro-benchmarks of the load-bearing primitives).
//
//	go test -bench=. -benchmem
package etlopt_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/experiments"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// figureWorkflows is the representative slice of the suite used by the
// per-iteration figure benchmarks (the full 30-workflow sweep lives in
// cmd/experiments; benchmarks need per-iteration times).
var figureWorkflows = []int{3, 9, 16, 21, 23, 30}

// BenchmarkTableDataCharacteristics regenerates the Section 7 data table
// (cardinalities and unique values of the suite's Zipfian relations).
func BenchmarkTableDataCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ch := experiments.DataCharacteristics(0.05)
		if ch.CardMax == 0 {
			b.Fatal("empty characteristics")
		}
	}
}

// BenchmarkFigure9CSSGeneration measures sub-expression and CSS generation
// (both rule sets) across representative workflows — the quantities plotted
// in Figure 9.
func BenchmarkFigure9CSSGeneration(b *testing.B) {
	ans := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range ans {
			if _, err := css.Generate(an, css.Options{CrossBlock: true, FKShortcut: true}); err != nil {
				b.Fatal(err)
			}
			if _, err := css.Generate(an, css.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure10StatisticsIdentification measures the full statistics
// identification pipeline (CSS generation + optimal selection), the Figure
// 10 quantity.
func BenchmarkFigure10StatisticsIdentification(b *testing.B) {
	ans := analyzed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range ans {
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			coster := costmodel.NewMemoryCoster(res, an.Cat)
			if _, err := selector.Select(res, coster, selector.Options{Method: selector.MethodExact, MaxNodes: 4000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlannerLayer measures the planner one layer at a time — CSS
// generation, universe build, exact selection — on a fixed set of suite
// workflows, so a change to one layer shows in that layer's rows. Each
// layer's inputs are built once, outside the timer.
func BenchmarkPlannerLayer(b *testing.B) {
	type prepared struct {
		name string
		an   *workflow.Analysis
		res  *css.Result
		u    *selector.Universe
	}
	var wfs []prepared
	for _, id := range []int{3, 16, 21, 30} {
		an, err := suite.MustGet(id).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		u, err := selector.NewUniverse(res, costmodel.NewMemoryCoster(res, an.Cat))
		if err != nil {
			b.Fatal(err)
		}
		wfs = append(wfs, prepared{name: fmt.Sprintf("wf%02d", id), an: an, res: res, u: u})
	}
	layers := []struct {
		name string
		run  func(p prepared) error
	}{
		{"css", func(p prepared) error {
			_, err := css.Generate(p.an, css.DefaultOptions())
			return err
		}},
		{"universe", func(p prepared) error {
			_, err := selector.NewUniverse(p.res, costmodel.NewMemoryCoster(p.res, p.an.Cat))
			return err
		}},
		{"select", func(p prepared) error {
			_, err := selector.SelectUniverse(p.u, selector.Options{Method: selector.MethodExact})
			return err
		}},
	}
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			for _, p := range wfs {
				b.Run(p.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := l.run(p); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkFigure11MemoryOverhead measures optimal-selection memory with
// and without union–division (the Figure 11 sweep) and reports the wf03
// ratio as a sanity anchor.
func BenchmarkFigure11MemoryOverhead(b *testing.B) {
	an3, err := suite.MustGet(3).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	var plainMem, udMem int64
	for i := 0; i < b.N; i++ {
		plain, err := css.Generate(an3, css.Options{})
		if err != nil {
			b.Fatal(err)
		}
		selP, err := selector.Select(plain, costmodel.NewMemoryCoster(plain, an3.Cat), selector.Options{Method: selector.MethodExact})
		if err != nil {
			b.Fatal(err)
		}
		ud, err := css.Generate(an3, css.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		selU, err := selector.Select(ud, costmodel.NewMemoryCoster(ud, an3.Cat), selector.Options{Method: selector.MethodExact})
		if err != nil {
			b.Fatal(err)
		}
		plainMem, udMem = selP.Memory, selU.Memory
	}
	b.ReportMetric(float64(plainMem), "mem-units")
	b.ReportMetric(float64(udMem), "mem+UD-units")
}

// BenchmarkFigure12Executions measures the trivial-CSS baseline's plan
// cover (the Figure 12 quantity) on the widest suite workflows.
func BenchmarkFigure12Executions(b *testing.B) {
	var ress []*css.Result
	for _, id := range []int{21, 26, 30} {
		an, err := suite.MustGet(id).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ress = append(ress, res)
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		for _, res := range ress {
			rep := payg.Evaluate(res)
			found = rep.Found
		}
	}
	b.ReportMetric(float64(found), "wf30-executions")
}

// BenchmarkE2ECycle measures one full optimization cycle (Figure 2): choose
// statistics, run instrumented, optimize — the end-to-end cost a deployment
// pays per re-optimization.
func BenchmarkE2ECycle(b *testing.B) {
	w := suite.MustGet(5)
	db := w.Data(0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cy, err := core.Run(w.Graph, w.Catalog, db, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if cy.Plans.TotalCost > cy.Plans.TotalInitialCost {
			b.Fatal("optimizer regressed")
		}
	}
}

// BenchmarkE2ECycleApprox is BenchmarkE2ECycle on the sketch-backed tier:
// the same workflow with every admissible exact statistic demoted to its
// HyperLogLog or count-min sibling, pinning the approximate tier's
// end-to-end overhead next to the exact baseline.
func BenchmarkE2ECycleApprox(b *testing.B) {
	w := suite.MustGet(5)
	db := w.Data(0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.StatsTier = core.TierApprox
		cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cy.Plans.TotalCost > cy.Plans.TotalInitialCost {
			b.Fatal("optimizer regressed")
		}
	}
}

// BenchmarkHLLAdd measures the per-tuple cost of a HyperLogLog update, the
// hot path of every sketch-backed distinct-count tap.
func BenchmarkHLLAdd(b *testing.B) {
	h := stats.NewHLL(stats.DefaultHLLP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i))
	}
	if h.Estimate() == 0 {
		b.Fatal("empty sketch")
	}
}

// BenchmarkHLLMerge measures the register-max merge that combines
// per-worker HLL shards after a parallel run.
func BenchmarkHLLMerge(b *testing.B) {
	l := stats.NewHLL(stats.DefaultHLLP)
	r := stats.NewHLL(stats.DefaultHLLP)
	for i := int64(0); i < 4096; i++ {
		l.Add(i)
		r.Add(i + 2048)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Clone().Merge(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCMHistObserve measures the per-tuple cost of a count-min
// histogram update (hash + one counter write per depth row).
func BenchmarkCMHistObserve(b *testing.B) {
	cm := stats.NewCMH(stats.CMSpecFor(0, 9999), stats.DefaultCMDepth, stats.DefaultCMWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Observe(int64(i % 10000))
	}
	if cm.Total() == 0 {
		b.Fatal("empty sketch")
	}
}

// BenchmarkAblationGreedyVsExact compares the two selection solvers on one
// mid-size workflow (the DESIGN.md solver ablation).
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	an, err := suite.MustGet(17).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := selector.NewUniverse(res, coster)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selector.Greedy(u); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selector.Exact(u, selector.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationUnionDivision isolates the generation-time overhead the
// union–division rules add (the Figure 10 "does UD cost anything" check).
func BenchmarkAblationUnionDivision(b *testing.B) {
	an, err := suite.MustGet(9).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := css.Generate(an, css.Options{CrossBlock: true, FKShortcut: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union-division", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := css.Generate(an, css.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistogramJoin measures the J2 evaluation primitive: joining a
// joint distribution against a join-column distribution.
func BenchmarkHistogramJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	aA := workflow.Attr{Rel: "T1", Col: "a"}
	aB := workflow.Attr{Rel: "T1", Col: "b"}
	h1 := stats.NewHistogram(aA, aB)
	h2 := stats.NewHistogram(aA)
	for i := 0; i < 20000; i++ {
		h1.Add(int64(rng.Intn(500)), int64(rng.Intn(50)))
		h2.Add(int64(rng.Intn(500)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Join(h1, h2, aA, []workflow.Attr{aB}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramDotProduct measures the J1 primitive.
func BenchmarkHistogramDotProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	aA := workflow.Attr{Rel: "T1", Col: "a"}
	h1 := stats.NewHistogram(aA)
	h2 := stats.NewHistogram(aA)
	for i := 0; i < 50000; i++ {
		h1.Add(int64(rng.Intn(5000)))
		h2.Add(int64(rng.Intn(5000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.DotProduct(h1, h2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInstrumentedRun measures instrumented execution throughput
// (the observation overhead the paper argues is acceptable).
func BenchmarkEngineInstrumentedRun(b *testing.B) {
	w := suite.MustGet(5)
	db := w.Data(0.002)
	an, err := w.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	sel, err := selector.Select(res, coster, selector.Options{Method: selector.MethodGreedy})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(an, db, nil)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunObserved(res, sel.Observe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMetricsOverhead measures the cost of per-operator metrics
// collection on the instrumented run. With metrics off
// the hot paths never call the clock, so "off" should be indistinguishable
// from the seed; "on" prices the timing calls and counter updates.
func BenchmarkMetricsOverhead(b *testing.B) {
	w := suite.MustGet(5)
	db := w.Data(0.002)
	an, err := w.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	sel, err := selector.Select(res, coster, selector.Options{Method: selector.MethodGreedy})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run("batch/metrics="+mode.name, func(b *testing.B) {
			eng := engine.New(an, db, nil)
			eng.CollectMetrics = mode.on
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunObserved(res, sel.Observe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelWorkflows are the multi-block suite entries used by the worker
// sweep, with a per-workflow data scale sized for per-iteration times:
// wf07 and wf18 are block chains (nothing to overlap, so workers=4 prices
// the scheduler's overhead), wf13 has two mutually independent blocks (the
// inter-block DAG scheduler's best case).
var parallelWorkflows = []struct {
	id    int
	scale float64
}{{7, 0.02}, {13, 0.1}, {18, 0.02}}

// BenchmarkEngineWorkers sweeps the inter-block worker count over
// multi-block suite workflows. Only wf13 has independent blocks to run
// concurrently; on the block chains the sweep verifies the scheduler adds
// no meaningful overhead.
func BenchmarkEngineWorkers(b *testing.B) {
	for _, pw := range parallelWorkflows {
		id := pw.id
		w := suite.MustGet(id)
		an, err := w.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		db := w.Data(pw.scale)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("wf%02d/batch-w%d", id, workers), func(b *testing.B) {
				eng := engine.New(an, db, nil)
				eng.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAdaptiveOverhead prices mid-run adaptive re-optimization on a
// multi-block workflow against the plain optimized run: "check" pays only
// the boundary checks (accurate estimates, nothing trips), "replan" pays a
// forced re-optimization plus the checkpoint splice. The check leg should
// sit within noise of plain; the replan leg bounds the worst case.
func BenchmarkAdaptiveOverhead(b *testing.B) {
	w := suite.MustGet(8)
	db := w.Data(0.002)
	cy, err := core.Run(w.Graph, w.Catalog, db, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cy.RunOptimized(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar, err := cy.RunOptimizedAdaptive(core.AdaptiveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(ar.Replans) != 0 {
				b.Fatal("accurate estimates replanned")
			}
		}
	})
	b.Run("replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar, err := cy.RunOptimizedAdaptive(core.AdaptiveOptions{Skew: map[int]float64{0: 4}})
			if err != nil {
				b.Fatal(err)
			}
			if len(ar.Replans) != 1 {
				b.Fatalf("replans = %d, want 1", len(ar.Replans))
			}
		}
	})
}

// BenchmarkZipfGeneration measures the synthetic data generator.
func BenchmarkZipfGeneration(b *testing.B) {
	spec := data.TableSpec{Rel: "T", Card: 100000, Columns: []data.ColumnSpec{
		{Name: "id", Serial: true},
		{Name: "k", Domain: 5000, Skew: 1.8},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := data.Generate(spec, int64(i))
		if t.Card() != 100000 {
			b.Fatal("bad cardinality")
		}
	}
}

// BenchmarkDistributedDispatch measures the coordinator/worker dispatch
// overhead over local loopback HTTP — wire codec, lease bookkeeping and
// central shard merge — next to BenchmarkE2ECycle's in-process number for
// the same workflow and scale.
func BenchmarkDistributedDispatch(b *testing.B) {
	w := suite.MustGet(5)
	db := w.Data(0.002)
	srv := httptest.NewServer(serve.NewWorker().Handler())
	defer srv.Close()
	coord, err := serve.NewCoordinator(
		serve.RunSpec{WF: 5, Scale: 0.002, CSS: css.DefaultOptions()},
		serve.CoordinatorOptions{Addrs: []string{srv.URL}},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Dispatcher = coord
		cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if d := cy.Observed.Dist; d == nil || len(d.Remote) == 0 || d.FellBack {
			b.Fatalf("run did not execute remotely: %+v", d)
		}
	}
}

func analyzed(b *testing.B) []*workflow.Analysis {
	b.Helper()
	var out []*workflow.Analysis
	for _, id := range figureWorkflows {
		an, err := suite.MustGet(id).Analyze()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, an)
	}
	return out
}
