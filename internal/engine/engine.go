// Package engine executes ETL workflows over materialized tables, the way
// a batch ETL runtime does. Both engines in this package are thin
// executors of the shared physical-plan IR (internal/physical): the
// compiler lowers each optimizable block's input chains, join tree (the
// designed initial order or any reordering supplied by the optimizer) and
// pinned top operators into a typed operator DAG with statistic taps
// already bound to their observation points; the batch engine interprets
// that DAG a whole operator output at a time, the streaming engine in
// pipelined chunks, both over column vectors. The batch engine also keeps
// a sequential row interpreter (RowMode) as the reference every golden
// test compares the columnar executors against.
//
// The engines realize Sections 3.2.5–3.2.6 of the paper: execution can be
// instrumented with per-point statistic collectors (tuple counters,
// distinct counters, exact frequency histograms, and reject-link
// observation) so a single execution of the initial plan gathers the
// statistics chosen by the selector.
package engine

import (
	"context"
	"fmt"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// DB maps base relation names to materialized tables.
type DB = physical.DB

// UDF is a scalar transformation function applied per tuple.
type UDF = physical.UDF

// Registry resolves transform function names to implementations.
type Registry = physical.Registry

// DefaultRegistry returns the built-in UDFs used by the examples and the
// benchmark suite.
func DefaultRegistry() Registry { return physical.DefaultRegistry() }

// Engine executes workflows in batch (table-at-a-time) mode.
type Engine struct {
	An  *workflow.Analysis
	DB  DB
	Reg Registry
	// Workers bounds how many independent blocks execute concurrently
	// (the block dependency DAG is derived from the analysis). Values <= 1
	// run the classic sequential loop.
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
	Faults *faults.Injector
	// RetryMax bounds per-block attempts when a transient fault aborts one
	// (0 = the default of 3: the first try plus two retries).
	RetryMax int
	// RetryBackoff is the base delay between attempts, doubling per retry,
	// capped at 100ms (0 = the default of 1ms).
	RetryBackoff time.Duration
	// RowMode runs the reference row interpreter (runBatchBlock) instead
	// of the default columnar one. It is the reference implementation: the
	// equivalence suite diffs both columnar executors' sinks, materialized
	// tables, observed statistics, work metric and deterministic metrics
	// against it on every workflow. It applies to blocks this engine runs
	// in-process; blocks placed on remote workers through Dispatch run
	// columnar.
	RowMode bool
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

// New returns an engine for the analyzed workflow over the database.
func New(an *workflow.Analysis, db DB, reg Registry) *Engine {
	if reg == nil {
		reg = DefaultRegistry()
	}
	return &Engine{An: an, DB: db, Reg: reg}
}

// Result is the outcome of one workflow execution.
type Result struct {
	// BlockOut holds each block's boundary output.
	BlockOut map[int]*data.Table
	// Sinks holds the target record-sets by name.
	Sinks map[string]*data.Table
	// Materialized holds explicitly materialized intermediate results by
	// target name, including the reject links of reject joins.
	Materialized map[string]*data.Table
	// Observed holds the collected statistics when the run was
	// instrumented (nil otherwise).
	Observed *stats.Store
	// Rows counts tuples processed across all operators (a simple work
	// metric used to compare plan costs empirically).
	Rows int64
	// Metrics is the per-operator metrics snapshot when the engine ran
	// with CollectMetrics (nil otherwise).
	Metrics *physical.RunMetrics
	// Degraded lists statistics whose observation failed permanently (the
	// run itself completed); empty on a clean run. Ordered canonically.
	Degraded []FailedStat
	// Retries counts block attempts repeated after transient faults.
	Retries int64
	// Dist records block placement when the run executed through a
	// dispatcher (nil for purely local runs).
	Dist *DistReport
}

// Run executes the workflow with each block using its initial join tree.
func (e *Engine) Run() (*Result, error) {
	return e.RunPlans(nil, nil, nil)
}

// RunObserved executes the initial plan instrumented to collect the given
// statistics (which must be observable; others are silently skipped).
func (e *Engine) RunObserved(res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.RunPlans(nil, res, observe)
}

// RunPlans executes the workflow using the supplied join tree per block
// (nil map or missing entry = the initial tree), instrumented with the
// given statistics when res is non-nil. Statistics not observable under
// the initial plan are skipped; use RunPlansObserving for re-ordered plans
// that expose different sub-expressions (the pay-as-you-go baseline).
func (e *Engine) RunPlans(plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(context.Background(), nil, plans, res, observe, false)
}

// RunPlansCtx is RunPlans under a context: cancellation (or deadline
// expiry) stops the run promptly. On error the partial result — completed
// metrics and block outputs — is returned alongside it, so callers can
// flush what the run did finish.
func (e *Engine) RunPlansCtx(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, nil, plans, res, observe, false)
}

// RunPlansObserving is RunPlans without the initial-plan observability
// filter: any statistic whose target the executed plans actually produce is
// collected. Targets the plans do not produce are silently absent from the
// store.
func (e *Engine) RunPlansObserving(plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(context.Background(), nil, plans, res, observe, true)
}

// RunPlansObservingCtx is RunPlansObserving under a context.
func (e *Engine) RunPlansObservingCtx(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, nil, plans, res, observe, true)
}

// Resume continues a run from a checkpoint (a *BlockFailure's Checkpoint
// field): completed blocks are restored, only the failed block's downstream
// cone re-executes, and already-observed statistics are kept (the store is
// write-once, so re-surfaced taps are no-ops).
func (e *Engine) Resume(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, cp, plans, res, observe, false)
}

// ResumeObserving is Resume without the initial-plan observability filter —
// the adaptive driver's splice path, where the re-optimized cone's plans no
// longer match the initial plan's observation points.
func (e *Engine) ResumeObserving(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, cp, plans, res, observe, true)
}

func (e *Engine) runPlans(ctx context.Context, cp *Checkpoint, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, anyPoint bool) (*Result, error) {
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
	runner := e.interpreter(col, e.CollectMetrics)
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
		// The partial result rides along: completed block outputs, the
		// metrics of finished operators, the statistics observed so far.
		return out, err
	}
	if err := routeSinks(e.An, out); err != nil {
		return out, err
	}
	return out, nil
}

// interpreter returns the block runner this engine runs blocks with: the
// reference row interpreter under RowMode, the columnar one otherwise.
func (e *Engine) interpreter(col *collector, metrics bool) blockRunner {
	if e.RowMode {
		return func(bp *physical.BlockPlan, sink *blockSink) (*data.Table, error) {
			return runBatchBlock(bp, col, sink, metrics)
		}
	}
	return func(bp *physical.BlockPlan, sink *blockSink) (*data.Table, error) {
		return runVecBlock(bp, col, sink, metrics)
	}
}

// runBatchBlock is the reference row interpreter. It interprets one
// compiled block table-at-a-time: every node of the plan evaluates in
// topological order, feeding its taps over the whole output table at once.
func runBatchBlock(bp *physical.BlockPlan, col *collector, out *blockSink, metrics bool) (*data.Table, error) {
	tables := make([]*data.Table, len(bp.Nodes))
	for _, n := range bp.Nodes {
		var met *physical.Metrics
		if metrics {
			met = &n.Metrics
		}
		tbl, err := evalNode(bp, n, tables, col, out, met)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.Label, err)
		}
		tables[n.ID] = tbl
	}
	return tables[bp.Root.ID], nil
}

// evalNode evaluates one physical node over its input tables, counts its
// output rows against the work metric and row budget, and feeds its taps.
// When met is non-nil the node's metrics are populated: operator time is
// exclusive (inputs are already materialized), and tap observation is timed
// separately so observation overhead never inflates operator time.
func evalNode(bp *physical.BlockPlan, n *physical.Node, tables []*data.Table, col *collector, out *blockSink, met *physical.Metrics) (*data.Table, error) {
	if err := out.ctxErr(); err != nil {
		return nil, err
	}
	if err := out.opFault(n); err != nil {
		return nil, err
	}
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	var tbl *data.Table
	switch n.Kind {
	case physical.OpScan:
		tbl = n.Src
		if n.FromBlock >= 0 {
			up, ok := out.upstream[n.FromBlock]
			if !ok {
				return nil, fmt.Errorf("upstream block %d not yet executed", n.FromBlock)
			}
			tbl = up
		}
	case physical.OpFilter:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		for _, r := range in.Rows {
			if n.Pred.Matches(r[n.PredCol]) {
				tbl.Rows = append(tbl.Rows, r)
			}
		}
	case physical.OpProject:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		for _, r := range in.Rows {
			row := make(data.Row, len(n.Cols))
			for i, c := range n.Cols {
				row[i] = r[c]
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	case physical.OpTransform:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		buf := make([]int64, len(n.FnIns))
		for _, r := range in.Rows {
			for i, c := range n.FnIns {
				buf[i] = r[c]
			}
			row := make(data.Row, 0, len(r)+1)
			row = append(append(row, r...), n.Fn(buf))
			tbl.Rows = append(tbl.Rows, row)
		}
	case physical.OpGroupBy:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		seen := newKeySet()
		// One scratch key, cloned only on first-seen insert: duplicate rows
		// (the common case under grouping) must not allocate.
		scratch := make(data.Row, len(n.Cols))
		for _, r := range in.Rows {
			for i, c := range n.Cols {
				scratch[i] = r[c]
			}
			if seen.add(scratch) {
				tbl.Rows = append(tbl.Rows, append(data.Row(nil), scratch...))
			}
		}
	case physical.OpAggregateUDF:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		seen := newKeySet()
		buf := make([]int64, len(n.FnIns))
		for _, r := range in.Rows {
			for i, c := range n.FnIns {
				buf[i] = r[c]
			}
			if !seen.add(buf) {
				continue
			}
			row := make(data.Row, 0, len(buf)+1)
			row = append(append(row, buf...), n.Fn(buf))
			tbl.Rows = append(tbl.Rows, row)
		}
	case physical.OpHashJoin:
		return evalJoin(bp, n, tables, col, out, met, start)
	case physical.OpMaterialize:
		tbl = tables[n.Input.ID]
		out.materialized[n.Rel] = tbl
		// Materialization moves no rows: not counted, and its taps (none
		// are ever attached) would see the input unchanged.
		return tbl, nil
	default:
		return nil, fmt.Errorf("unexpected physical operator %v", n.Kind)
	}
	if err := out.count(tbl.Card()); err != nil {
		return nil, err
	}
	taps, err := out.liveTaps(col, n.Taps)
	if err != nil {
		return nil, err
	}
	if met != nil {
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += tbl.Card()
		if len(taps) > 0 {
			tapStart := time.Now()
			for _, t := range taps {
				col.collect(t, tbl)
			}
			met.TapNanos += time.Since(tapStart).Nanoseconds()
		}
		return tbl, nil
	}
	for _, t := range taps {
		col.collect(t, tbl)
	}
	return tbl, nil
}

// evalJoin evaluates a hash-join node: build on the right, probe with the
// left, collecting both sides' misses for reject statistics and reject
// links. The row budget is checked while the output grows, so a blowing-up
// join aborts before exhausting memory.
func evalJoin(bp *physical.BlockPlan, n *physical.Node, tables []*data.Table, col *collector, out *blockSink, met *physical.Metrics, start time.Time) (*data.Table, error) {
	left, right := tables[n.Left.ID], tables[n.Right.ID]
	index := make(map[int64][]data.Row, len(right.Rows))
	for _, r := range right.Rows {
		index[r[n.RightCol]] = append(index[r[n.RightCol]], r)
	}
	joined := &data.Table{Rel: left.Rel + "⋈" + right.Rel, Attrs: n.Attrs}
	leftMiss := &data.Table{Rel: left.Rel + "!", Attrs: left.Attrs}
	matched := make(map[int64]bool)
	var pending int64
	for _, lrow := range left.Rows {
		matches := index[lrow[n.LeftCol]]
		if len(matches) == 0 {
			leftMiss.Rows = append(leftMiss.Rows, lrow)
			continue
		}
		matched[lrow[n.LeftCol]] = true
		for _, rrow := range matches {
			row := make(data.Row, 0, len(lrow)+len(rrow))
			row = append(append(row, lrow...), rrow...)
			joined.Rows = append(joined.Rows, row)
		}
		pending += int64(len(matches))
		if pending >= 4096 {
			if err := out.count(pending); err != nil {
				return nil, err
			}
			pending = 0
			if err := out.ctxErr(); err != nil {
				return nil, err
			}
		}
	}
	if err := out.count(pending); err != nil {
		return nil, err
	}
	rightMiss := &data.Table{Rel: right.Rel + "!", Attrs: right.Attrs}
	for _, rrow := range right.Rows {
		if !matched[rrow[n.RightCol]] {
			rightMiss.Rows = append(rightMiss.Rows, rrow)
		}
	}
	taps, err := out.liveTaps(col, n.Taps)
	if err != nil {
		return nil, err
	}
	var tapStart time.Time
	if met != nil {
		// Miss collection above is part of the join's own work (reject
		// links need it regardless of instrumentation); only the
		// statistic observation below counts as tap overhead.
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += joined.Card()
		tapStart = time.Now()
	}
	for _, t := range taps {
		col.collect(t, joined)
	}
	if n.LeftReject != nil {
		if err := collectReject(bp, n.LeftReject, leftMiss, tables, col, out); err != nil {
			return nil, err
		}
	}
	if n.RightReject != nil {
		if err := collectReject(bp, n.RightReject, rightMiss, tables, col, out); err != nil {
			return nil, err
		}
	}
	if met != nil {
		met.TapNanos += time.Since(tapStart).Nanoseconds()
	}
	if n.RejectLink != "" {
		out.materialized[n.RejectLink] = leftMiss
	}
	return joined, nil
}

// collectReject feeds one side's reject statistics: singletons over the
// miss rows directly, two-input variants through their auxiliary joins with
// the partner's cooked input.
func collectReject(bp *physical.BlockPlan, rt *physical.RejectTaps, misses *data.Table, tables []*data.Table, col *collector, out *blockSink) error {
	singles, err := out.liveTaps(col, rt.Singles)
	if err != nil {
		return err
	}
	for _, t := range singles {
		col.collect(t, misses)
	}
	aux, err := out.liveAux(col, rt.Aux)
	if err != nil {
		return err
	}
	if len(aux) == 0 {
		return nil
	}
	st := &auxState{aux: aux, misses: misses}
	st.run(col, chainEnds(bp, tables))
	return nil
}

// chainEnds returns each input's cooked table (the chain-end node outputs).
func chainEnds(bp *physical.BlockPlan, tables []*data.Table) []*data.Table {
	out := make([]*data.Table, len(bp.Chains))
	for i, ch := range bp.Chains {
		out[i] = tables[ch[len(ch)-1].ID]
	}
	return out
}

// hashJoin equi-joins two tables, also returning each side's non-matching
// rows (the reject sets). It is the reference join the auxiliary
// union–division counters and the tests use.
func hashJoin(left, right *data.Table, la, ra workflow.Attr) (joined, leftMiss, rightMiss *data.Table, err error) {
	lc := left.Col(la)
	rc := right.Col(ra)
	if lc < 0 || rc < 0 {
		return nil, nil, nil, fmt.Errorf("join attrs %s/%s not found (schemas %v / %v)", la, ra, left.Attrs, right.Attrs)
	}
	index := make(map[int64][]data.Row)
	for _, r := range right.Rows {
		index[r[rc]] = append(index[r[rc]], r)
	}
	joined = &data.Table{
		Rel:   left.Rel + "⋈" + right.Rel,
		Attrs: append(append([]workflow.Attr(nil), left.Attrs...), right.Attrs...),
	}
	leftMiss = &data.Table{Rel: left.Rel + "!", Attrs: left.Attrs}
	matchedRight := make(map[int64]bool)
	for _, lrow := range left.Rows {
		matches := index[lrow[lc]]
		if len(matches) == 0 {
			leftMiss.Rows = append(leftMiss.Rows, lrow)
			continue
		}
		matchedRight[lrow[lc]] = true
		for _, rrow := range matches {
			row := make(data.Row, 0, len(lrow)+len(rrow))
			row = append(append(row, lrow...), rrow...)
			joined.Rows = append(joined.Rows, row)
		}
	}
	rightMiss = &data.Table{Rel: right.Rel + "!", Attrs: right.Attrs}
	for _, rrow := range right.Rows {
		if !matchedRight[rrow[rc]] {
			rightMiss.Rows = append(rightMiss.Rows, rrow)
		}
	}
	return joined, leftMiss, rightMiss, nil
}
