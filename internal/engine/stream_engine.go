package engine

import (
	"context"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// StreamEngine executes compiled physical plans in pipelined mode: input
// chains cook chunk-at-a-time over column vectors, join trees run as a
// probe cascade along the streamed spine, and statistic observers fold each
// chunk as it passes (see vec_stream.go). It interprets the same physical
// IR as the batch Engine — operator semantics, tap placement and reject
// routing are decided once, by the compiler — so its results and
// observations are identical to Engine's (the tests cross-check against the
// batch engine's reference row interpreter), and either mode can back the
// optimization loop.
type StreamEngine struct {
	An  *workflow.Analysis
	DB  DB
	Reg Registry
	// Workers bounds block-level concurrency and, within each block,
	// partitions chain and join-probe pipelines across goroutines with
	// per-worker statistic shards (merged after the operator drains, so
	// observed values are identical to a sequential run). Values <= 1 run
	// every pipeline over a single partition.
	Workers int
	// MaxRows caps the total intermediate rows one run may produce (the
	// work metric Result.Rows); exceeding it aborts the run with a clear
	// error instead of letting a skewed join order blow up memory. 0 (the
	// default) runs unguarded.
	MaxRows int64
	// CollectMetrics populates per-operator runtime metrics
	// (physical.Node.Metrics) during the run and attaches the snapshot to
	// Result.Metrics. Off by default: the hot paths skip all timing work.
	CollectMetrics bool
	// Faults injects deterministic failures at operator, source, tap and
	// budget sites (nil, the default, injects nothing and costs nothing).
	// Sites are engine-independent, so the same injector produces the same
	// fault pattern here and in the batch Engine.
	Faults *faults.Injector
	// RetryMax bounds per-block attempts when a transient fault aborts one
	// (0 = the default of 3).
	RetryMax int
	// RetryBackoff is the base delay between attempts, doubling per retry,
	// capped at 100ms (0 = the default of 1ms).
	RetryBackoff time.Duration
	// AdaptCheck, when non-nil, is consulted after every committed block;
	// returning true stops the run with a *ReplanSignal. Forces sequential
	// block scheduling (see adapt.go).
	AdaptCheck AdaptCheck
	// Dispatch, when non-nil, schedules blocks onto remote workers through
	// the dispatcher instead of local goroutines (see dispatch.go). An
	// AdaptCheck takes precedence: adaptive runs need the sequential local
	// scheduler, so a run with both set executes locally.
	Dispatch BlockDispatcher
}

// NewStream returns a streaming engine.
func NewStream(an *workflow.Analysis, db DB, reg Registry) *StreamEngine {
	if reg == nil {
		reg = DefaultRegistry()
	}
	return &StreamEngine{An: an, DB: db, Reg: reg}
}

// Run executes the workflow with each block's initial join tree.
func (e *StreamEngine) Run() (*Result, error) { return e.RunPlans(nil, nil, nil) }

// RunObserved executes the initial plan instrumented with the given
// statistics.
func (e *StreamEngine) RunObserved(res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.RunPlans(nil, res, observe)
}

// RunPlans mirrors Engine.RunPlans in streaming mode.
func (e *StreamEngine) RunPlans(plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(context.Background(), nil, plans, res, observe, false)
}

// RunPlansCtx is RunPlans under a context: cancellation stops the run
// promptly; on error the partial result rides alongside.
func (e *StreamEngine) RunPlansCtx(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, nil, plans, res, observe, false)
}

// RunPlansObserving is RunPlans without the initial-plan observability
// filter (see Engine.RunPlansObserving).
func (e *StreamEngine) RunPlansObserving(plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(context.Background(), nil, plans, res, observe, true)
}

// RunPlansObservingCtx is RunPlansObserving under a context.
func (e *StreamEngine) RunPlansObservingCtx(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, nil, plans, res, observe, true)
}

// Resume continues a run from a checkpoint, re-executing only the missing
// blocks (see Engine.Resume — the checkpoint format is engine-independent).
func (e *StreamEngine) Resume(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, cp, plans, res, observe, false)
}

// ResumeObserving is Resume without the initial-plan observability filter —
// the adaptive driver's splice path, where the re-optimized cone's plans no
// longer match the initial plan's observation points.
func (e *StreamEngine) ResumeObserving(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, cp, plans, res, observe, true)
}

func (e *StreamEngine) runPlans(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, anyPoint bool) (*Result, error) {
	plan, err := physical.Compile(e.An, e.DB, physical.Options{
		Plans: plans, Res: res, Observe: observe, AnyPoint: anyPoint, Reg: e.Reg,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		BlockOut:     make(map[int]*data.Table),
		Sinks:        make(map[string]*data.Table),
		Materialized: make(map[string]*data.Table),
	}
	seedFrom(out, cp)
	var col *collector
	if res != nil {
		col = newCollector()
		if cp != nil && cp.Observed != nil {
			col.store = cp.Observed
		}
		out.Observed = col.store
	}
	env := newRunEnv(ctx, newRowBudget(e.MaxRows), e.Faults, e.RetryMax, e.RetryBackoff)
	env.adapt = e.AdaptCheck
	runner := func(bp *physical.BlockPlan, sink *blockSink) (*data.Table, error) {
		return e.runVecStreamBlock(bp, col, sink)
	}
	if e.Dispatch != nil && env.adapt == nil {
		err = runBlocksDist(plan, e.Workers, env, out, col, e.Dispatch, &DispatchSpec{
			Plans: plans, Observe: observe, Instrument: res != nil, AnyPoint: anyPoint,
		}, runner)
	} else {
		err = runBlocksDAG(plan, e.Workers, env, out, runner)
	}
	out.Retries = env.retries.Load()
	out.Degraded = col.failedStats()
	if e.CollectMetrics {
		out.Metrics = plan.MetricsSnapshot()
	}
	if err != nil {
		return out, err
	}
	if err := routeSinks(e.An, out); err != nil {
		return out, err
	}
	return out, nil
}
