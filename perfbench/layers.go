package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// layerSums accumulates per-layer values over one round.
type layerSums map[string]float64

// cycleOut is what one cycle produced, whichever path ran it.
type cycleOut struct {
	an        *workflow.Analysis
	res       *css.Result
	sel       *selector.Selection
	plans     *optimizer.Result
	observed  *engine.Result
	optimized *engine.Result
	degraded  bool
}

// untracedCycle is the measured op: core.Run, then RunOptimized.
func untracedCycle(ctx context.Context, w *suite.Workflow, db engine.DB, cfg core.Config) (*cycleOut, error) {
	cy, err := core.RunCtx(ctx, w.Graph, w.Catalog, db, cfg)
	if err != nil {
		return nil, err
	}
	opt, err := cy.RunOptimizedCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &cycleOut{an: cy.Analysis, res: cy.CSS, sel: cy.Selection, plans: cy.Plans,
		observed: cy.Observed, optimized: opt, degraded: cy.Degradation != nil}, nil
}

// newEngine configures an engine the way core does for cfg.
func newEngine(an *workflow.Analysis, db engine.DB, cfg core.Config) *engine.Engine {
	eng := engine.New(an, db, cfg.Registry)
	eng.Workers = cfg.Workers
	eng.MaxRows = cfg.MaxRows
	eng.RowMode = cfg.RowMode
	eng.Dispatch = cfg.Dispatcher
	return eng
}

// tracedCycle performs one cycle by calling the layers in the order
// core.RunCtx calls them, with the same configuration, and records a span
// around each call. Every workload uses core.DefaultConfig (exact tier,
// batch engine, no faults or metrics), under which these calls are exactly
// core.RunCtx's. Per-layer values are added to sums.
func tracedCycle(ctx context.Context, tr *tracer, parent, lane int, w *suite.Workflow, db engine.DB, cfg core.Config, sums layerSums) (*cycleOut, error) {
	op := tr.newOp()
	cyc := tr.begin("core.cycle", op, parent, lane)
	defer tr.end(cyc)
	layer := func(name string) func() time.Duration {
		id := tr.begin(name, op, cyc, lane)
		return func() time.Duration { return tr.end(id) }
	}
	out := &cycleOut{}

	done := layer("workflow.analyze")
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	sums["workflow.analyze_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	out.an = an

	done = layer("css.generate")
	allocs := startAllocs()
	res, err := css.Generate(an, cfg.CSS)
	n, _ := allocs.since()
	sums["css.generate_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("generate CSS: %w", err)
	}
	sums["css.allocs"] += n
	sums["css.stats"] += float64(len(res.Stats))
	sums["css.sets"] += float64(res.NumCSS())
	out.res = res

	done = layer("selector.universe")
	allocs = startAllocs()
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	coster.UseFDs = cfg.UseFDs
	coster.FreeSourceStats = cfg.FreeSourceStats
	coster.CPUWeight = cfg.CPUWeight
	coster.Sizes = cfg.Sizes
	u, err := selector.NewUniverseOpts(res, coster, selector.UniverseOptions{})
	n, _ = allocs.since()
	sums["selector.universe_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("universe: %w", err)
	}
	sums["selector.universe_allocs"] += n

	done = layer("selector.exact")
	sel, err := selector.SelectUniverse(u, selector.Options{Method: cfg.Method})
	sums["selector.exact_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("select: %w", err)
	}
	sums["selector.exact_nodes"] += float64(sel.Nodes)
	sums["selector.observed"] += float64(len(sel.Observe))
	out.sel = sel

	done = layer("engine.observed_run")
	allocs = startAllocs()
	run, err := newEngine(an, db, cfg).RunPlansCtx(ctx, nil, res, sel.Observe)
	n, b := allocs.since()
	d := done()
	sums["engine.observed_run_ms"] += msOf(d)
	if err != nil {
		return nil, fmt.Errorf("instrumented run: %w", err)
	}
	sums["engine.allocs_per_run"] += n
	sums["engine.mb_per_run"] += b / 1e6
	sums["engine.rows"] += float64(run.Rows)
	sums["engine.run_s"] += d.Seconds()
	out.observed = run
	out.degraded = len(run.Degraded) > 0
	if out.degraded {
		// core would walk its degradation ladder here; no workload
		// injects faults, so a degraded observation is a failure.
		return out, fmt.Errorf("instrumented run degraded %d statistics", len(run.Degraded))
	}

	done = layer("estimate.new")
	est := estimate.New(res, run.Observed)
	sums["estimate.new_ms"] += msOf(done())

	done = layer("optimizer.optimize")
	plans, err := optimizer.OptimizeOpts(res, est, cfg.CostModel, optimizer.Options{})
	sums["optimizer.optimize_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	out.plans = plans

	done = layer("engine.optimized_run")
	opt, err := newEngine(an, db, cfg).RunPlansCtx(ctx, plans.Trees(), nil, nil)
	sums["engine.optimized_run_ms"] += msOf(done())
	if err != nil {
		return nil, fmt.Errorf("optimized run: %w", err)
	}
	out.optimized = opt
	return out, nil
}

// finishLayerSums derives the ratio metrics of one round's sums and drops
// the sums they were derived from.
func finishLayerSums(s layerSums) {
	if s["engine.run_s"] > 0 {
		s["engine.rows_per_s"] = s["engine.rows"] / s["engine.run_s"]
	}
	if s["engine.plain_run_ms"] > 0 && s["engine.local_observed_ms"] > 0 {
		s["engine.tap_overhead"] = s["engine.local_observed_ms"]/s["engine.plain_run_ms"] - 1
	}
	delete(s, "engine.run_s")
	delete(s, "engine.local_observed_ms")
}

// probeInput is everything the out-of-round probes of one workflow need.
type probeInput struct {
	w     *suite.Workflow
	db    engine.DB
	scale float64
	cfg   core.Config // without a dispatcher
	out   *cycleOut
	// prev is a second store of the same workflow for the drift probe
	// (the store itself when there is no other).
	prev *stats.Store
}

// probe runs the calls that stay outside the timed rounds: SE enumeration,
// plan compilation, the untapped engine run, the statistics and table
// codecs, the catalog write and the derivation of every required
// statistic. Results are added to sums.
func probe(ctx context.Context, tr *tracer, in probeInput, catDir string, sums layerSums) error {
	op := tr.newOp()
	root := tr.begin("probe", op, 0, 0)
	defer tr.end(root)
	layer := func(name string) func() time.Duration {
		id := tr.begin(name, op, root, 0)
		return func() time.Duration { return tr.end(id) }
	}
	an, res, sel := in.out.an, in.out.res, in.out.sel

	done := layer("expr.enumerate")
	for _, blk := range an.Blocks {
		sp, err := expr.Enumerate(blk)
		if err != nil {
			return fmt.Errorf("enumerate: %w", err)
		}
		sums["expr.ses"] += float64(len(sp.SEs))
	}
	sums["expr.enumerate_ms"] += msOf(done())

	done = layer("physical.compile")
	plan, err := physical.Compile(an, in.db, physical.Options{Res: res, Observe: sel.Observe})
	sums["physical.compile_ms"] += msOf(done())
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	for _, bp := range plan.Blocks {
		sums["physical.nodes"] += float64(len(bp.Nodes))
		for _, n := range bp.Nodes {
			sums["physical.taps"] += float64(len(n.Taps))
		}
	}

	// Untapped and tapped runs alternate on the same data; each figure is
	// the median of three.
	var plain, tapped []float64
	for i := 0; i < 3; i++ {
		done = layer("engine.plain_run")
		_, err := newEngine(an, in.db, in.cfg).RunPlansCtx(ctx, nil, nil, nil)
		plain = append(plain, msOf(done()))
		if err != nil {
			return fmt.Errorf("plain run: %w", err)
		}
		done = layer("engine.local_observed_run")
		_, err = newEngine(an, in.db, in.cfg).RunPlansCtx(ctx, nil, res, sel.Observe)
		tapped = append(tapped, msOf(done()))
		if err != nil {
			return fmt.Errorf("observed run: %w", err)
		}
	}
	sums["engine.plain_run_ms"] += median(plain)
	sums["engine.local_observed_ms"] += median(tapped)

	store := in.out.observed.Observed
	done = layer("stats.encode")
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		return fmt.Errorf("encode store: %w", err)
	}
	sums["stats.encode_ms"] += msOf(done())
	sums["stats.store_bytes"] += float64(buf.Len())
	done = layer("stats.decode")
	decoded, err := stats.ReadStore(bytes.NewReader(buf.Bytes()))
	sums["stats.decode_ms"] += msOf(done())
	if err != nil {
		return fmt.Errorf("decode store: %w", err)
	}
	prev := in.prev
	if prev == nil {
		prev = decoded
	}
	done = layer("stats.drift")
	stats.MeasureDrift(prev, store)
	sums["stats.drift_ms"] += msOf(done())

	done = layer("data.wire_encode")
	blobs, err := encodeTables(namedBlocks(in.out.observed.BlockOut))
	sums["data.wire_encode_ms"] += msOf(done())
	if err != nil {
		return fmt.Errorf("encode tables: %w", err)
	}
	done = layer("data.wire_decode")
	for _, blob := range blobs {
		sums["data.wire_bytes"] += float64(len(blob))
		if _, err := data.ReadTable(bytes.NewReader(blob)); err != nil {
			return fmt.Errorf("decode table: %w", err)
		}
	}
	sums["data.wire_decode_ms"] += msOf(done())

	dir, err := os.MkdirTemp(catDir, "catalog-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cat, err := serve.OpenCatalog(dir)
	if err != nil {
		return err
	}
	done = layer("serve.catalog_put")
	_, _, _, err = cat.Put(in.w.Name, store)
	sums["serve.catalog_put_ms"] += msOf(done())
	if err != nil {
		return fmt.Errorf("catalog put: %w", err)
	}

	done = layer("estimate.derive")
	est := estimate.New(res, store)
	for _, st := range res.Required {
		if _, err := est.Value(st); err != nil {
			return fmt.Errorf("derive %v: %w", st.Key(), err)
		}
	}
	sums["estimate.derive_ms"] += msOf(done())
	sums["estimate.required"] += float64(len(res.Required))
	return nil
}

// namedBlocks keys block outputs by a printable name.
func namedBlocks(m map[int]*data.Table) map[string]*data.Table {
	out := make(map[string]*data.Table, len(m))
	for b, t := range m {
		if t != nil {
			out[fmt.Sprintf("block%d", b)] = t
		}
	}
	return out
}

// dispatchProbe times the instrumented initial run of each workflow
// through a coordinator over one in-process worker against the same run in
// process. Workers generate data from the suite's own seed, so both runs
// use that data. A nil worker starts (and stops) a fresh one.
func dispatchProbe(ctx context.Context, tr *tracer, wk *httpServer, ins []probeInput, sums layerSums) error {
	if wk == nil {
		var err error
		if wk, err = startHTTP(serve.NewWorker().Handler()); err != nil {
			return err
		}
		defer wk.close()
	}
	op := tr.newOp()
	root := tr.begin("probe.dispatch", op, 0, 0)
	defer tr.end(root)
	for _, k := range []string{"serve.dispatch_ms", "serve.remote_blocks", "serve.reassigned", "serve.fell_back"} {
		sums[k] += 0 // present even when nothing was reassigned
	}
	for _, in := range ins {
		w := suite.MustGet(in.w.ID)
		db := w.Data(in.scale)
		coord, err := serve.NewCoordinator(serve.RunSpec{WF: w.ID, Scale: in.scale, CSS: in.cfg.CSS}, serve.CoordinatorOptions{Addrs: []string{wk.url}})
		if err != nil {
			return err
		}
		cfg := in.cfg
		cfg.Dispatcher = coord
		an, res, sel := in.out.an, in.out.res, in.out.sel
		// A plain distributed run first, so the worker's lazy data
		// generation is not charged to dispatch.
		if _, err := newEngine(an, db, cfg).RunPlansCtx(ctx, nil, nil, nil); err != nil {
			return fmt.Errorf("warm worker: %w", err)
		}
		id := tr.begin("engine.local_observed_run", op, root, 0)
		local, err := newEngine(an, db, in.cfg).RunPlansCtx(ctx, nil, res, sel.Observe)
		localD := tr.end(id)
		if err != nil {
			return fmt.Errorf("local run: %w", err)
		}
		id = tr.begin("engine.dist_observed_run", op, root, 0)
		dist, err := newEngine(an, db, cfg).RunPlansCtx(ctx, nil, res, sel.Observe)
		distD := tr.end(id)
		if err != nil {
			return fmt.Errorf("distributed run: %w", err)
		}
		a, errA := encodeStore(local.Observed)
		b, errB := encodeStore(dist.Observed)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			return fmt.Errorf("%s: distributed observed store differs from the in-process one", w.Name)
		}
		sums["serve.dispatch_ms"] += msOf(distD - localD)
		if rep := dist.Dist; rep != nil {
			sums["serve.remote_blocks"] += float64(len(rep.Remote))
			sums["serve.reassigned"] += float64(rep.Reassigned)
			if rep.FellBack {
				sums["serve.fell_back"]++
			}
		}
	}
	return nil
}

// catalogDir is where a run keeps its temporary statistics catalogs.
func catalogDir(o options) (string, error) {
	dir := filepath.Join(o.workDir, "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}
