package core

// Mid-run adaptive re-optimization: the first feature that closes the
// observe → estimate → re-plan loop *inside* a run rather than between
// runs. The optimized run executes under an engine AdaptCheck; at every
// block boundary the driver folds the just-committed block's tapped
// actuals into its evidence and compares them, through ConeFeedback,
// against the estimates that justified the not-yet-executed cone. When a
// boundary actual refutes its estimate beyond the de-flapped threshold the
// run stops with a ReplanSignal; the driver injects every actual collected
// so far as an exact cardinality into a shadow statistics store, re-invokes
// the optimizer on only the pending blocks, and splices the re-optimized
// cone in through the engines' Resume path — completed blocks are never
// re-run, and their boundary outputs, materialized tables and observed
// statistics carry over through the checkpoint unchanged.
//
// De-flapping, in three layers:
//
//   - the trigger threshold is widened by the plan-time P90 q-error
//     (Feedback.ReplanThreshold): estimates deviating within the envelope
//     the plan was already justified under are not news;
//   - vacuous 0/0 targets and over-predicted empty SEs never trip
//     (Feedback.TripsReplan) — they are measurement noise, not refutation;
//   - after a replan the absorbed actuals become exact store hits in the
//     shadow estimator (q-error 1), so the same evidence cannot re-trigger;
//     MaxReplans caps pathological workloads outright.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// DefaultReplanThreshold is the base q-error a boundary actual must exceed
// to trigger a mid-run replan (before the plan-time calibration widens it).
const DefaultReplanThreshold = 2.0

// DefaultMaxReplans caps replans per run.
const DefaultMaxReplans = 3

// AdaptiveOptions tune one adaptive execution.
type AdaptiveOptions struct {
	// Threshold is the base replan q-error threshold (0 = the default of
	// 2). The effective threshold is widened by the plan-time feedback's
	// P90 q-error when the cycle collected metrics.
	Threshold float64
	// MaxReplans caps mid-run replans (0 = the default of 3).
	MaxReplans int
	// Skew multiplies the derived estimates of the named blocks during the
	// boundary checks — the deterministic forcing knob the equivalence
	// tests and the -replan-skew flag use to provoke a replan without
	// perturbing data. It is dropped after the first replan it causes (the
	// absorbed actuals already correct the skewed blocks), so a skew forces
	// at most one replan.
	Skew map[int]float64
}

// Replan records one mid-run re-optimization.
type Replan struct {
	// AtBlock is the boundary block whose actuals tripped the check.
	AtBlock int
	// Trigger is the report that refuted its estimate.
	Trigger estimate.SEReport
	// Reoptimized lists the pending blocks re-optimized (ascending).
	Reoptimized []int
	// Changed lists the blocks whose join tree actually changed (ascending).
	Changed []int
	// Fallbacks lists pending blocks kept on their current trees because
	// the shadow estimator could not derive their cone (ascending).
	Fallbacks []int
}

// AdaptiveResult is the outcome of one adaptive optimized run.
type AdaptiveResult struct {
	// Run is the final spliced execution result: sinks, materialized
	// tables, observed statistics and the work metric across all segments.
	Run *engine.Result
	// Plans holds the per-block join trees the run finished under —
	// executing them cold reproduces Run exactly (the equivalence suite
	// pins this byte-for-byte).
	Plans map[int]*workflow.JoinTree
	// Replans lists the mid-run re-optimizations in order (empty when the
	// estimates held up).
	Replans []Replan
	// Threshold is the effective replan threshold after calibration.
	Threshold float64
	// Checks counts boundary checks performed across all segments.
	Checks int
}

// Summary renders a deterministic one-block replan report (no timing, no
// map iteration) — the line cmd/etlopt prints under -adaptive.
func (ar *AdaptiveResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "adaptive: %d replan(s) in %d boundary check(s), threshold q>%.4g\n",
		len(ar.Replans), ar.Checks, ar.Threshold)
	for i, r := range ar.Replans {
		fmt.Fprintf(&sb, "  replan %d after block %d: %s actual %d est %d (q %.4g); reoptimized %v changed %v",
			i+1, r.AtBlock, r.Trigger.Label, r.Trigger.Actual, r.Trigger.Estimate, r.Trigger.QError,
			r.Reoptimized, r.Changed)
		if len(r.Fallbacks) > 0 {
			fmt.Fprintf(&sb, " fallback %v", r.Fallbacks)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// adaptState is the driver's side of the engine AdaptCheck: evidence
// accumulated across segments, and the trigger captured for the signal
// handler.
type adaptState struct {
	cy        *Cycle
	est       *estimate.Estimator
	skew      map[int]float64
	threshold float64
	remaining int

	actuals map[stats.Target]int64
	checks  int
	trigger estimate.SEReport
}

// check is the engine boundary hook. It runs on the engine's (sequential)
// scheduling goroutine, between blocks, so no locking is needed.
func (st *adaptState) check(plan *physical.Plan, block int, done map[int]bool) bool {
	// Fold in the just-committed block's tapped actuals. Each block commits
	// exactly once across segments (checkpointed blocks never re-fire), so
	// the evidence never double-counts.
	for t, v := range plan.BlockActuals(block) {
		st.actuals[t] = v
	}
	if st.remaining <= 0 {
		return false
	}
	st.checks++
	fb := estimate.ConeFeedback(st.cy.CSS, st.est, st.actuals, st.skew)
	rep, trip := fb.TripsReplan(st.threshold)
	if !trip {
		return false
	}
	st.trigger = rep
	return true
}

// replan absorbs the evidence into a shadow store, re-optimizes the
// pending cone and updates the scheduled trees in place. The returned
// record lists what changed.
func (st *adaptState) replan(cp *engine.Checkpoint, cur map[int]*workflow.JoinTree) (Replan, error) {
	res := st.cy.CSS
	rec := Replan{AtBlock: st.trigger.Block, Trigger: st.trigger}

	// Shadow store: the tapped actuals as exact cardinalities, layered over
	// the plan-time observations (Merge copies only absent keys, so the
	// actuals win wherever both speak).
	shadow := stats.NewStore()
	for t, v := range st.actuals {
		shadow.PutScalar(stats.NewCard(t), v)
	}
	if st.cy.Observed != nil && st.cy.Observed.Observed != nil {
		shadow.Merge(st.cy.Observed.Observed)
	}
	st.est = estimate.New(res, shadow)

	pending := make(map[int]bool)
	for bi := range res.Analysis.Blocks {
		if _, ok := cp.BlockOut[bi]; !ok {
			pending[bi] = true
			rec.Reoptimized = append(rec.Reoptimized, bi)
		}
	}
	sort.Ints(rec.Reoptimized)

	plans, err := optimizer.OptimizeOpts(res, st.est, st.cy.cfg.CostModel,
		optimizer.Options{FallbackInitial: true, Only: pending})
	if err != nil {
		return rec, fmt.Errorf("core: adaptive re-optimize: %w", err)
	}
	fellBack := make(map[int]bool, len(plans.Fallbacks))
	for _, bi := range plans.Fallbacks {
		fellBack[bi] = true
	}
	for _, bi := range rec.Reoptimized {
		p := plans.Plans[bi]
		if p == nil || fellBack[bi] {
			// Underivable cone: keep the tree the run is already scheduled
			// under — the degradation rung for a replan, mirroring how
			// between-run optimization falls back to the initial plan.
			rec.Fallbacks = append(rec.Fallbacks, bi)
			continue
		}
		blk := res.Analysis.Blocks[bi]
		if renderTree(p.Tree, blk) != renderTree(cur[bi], blk) {
			rec.Changed = append(rec.Changed, bi)
		}
		cur[bi] = p.Tree
	}
	sort.Ints(rec.Changed)

	// The skew forced this replan; the absorbed actuals already correct the
	// skewed blocks, so keeping it would only burn the replan budget
	// re-confirming a disagreement the shadow store no longer has.
	st.skew = nil
	st.remaining--
	return rec, nil
}

// renderTree renders a scheduled tree (nil = the block's initial tree, the
// engine's interpretation of a missing map entry).
func renderTree(t *workflow.JoinTree, blk *workflow.Block) string {
	if t == nil {
		t = blk.Initial
	}
	if t == nil {
		return ""
	}
	return t.Render(blk)
}

// RunOptimizedAdaptive executes the cycle's optimized plans with mid-run
// adaptive re-optimization (see the package comment at the top of this
// file). The run is instrumented with the cycle's selected statistics, so
// a following cycle can reuse its observations exactly like RunOptimized's.
func (cy *Cycle) RunOptimizedAdaptive(opts AdaptiveOptions) (*AdaptiveResult, error) {
	return cy.RunOptimizedAdaptiveCtx(context.Background(), opts)
}

// RunOptimizedAdaptiveCtx is RunOptimizedAdaptive under a context.
func (cy *Cycle) RunOptimizedAdaptiveCtx(ctx context.Context, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if cy.Plans == nil || cy.CSS == nil || cy.Selection == nil {
		return nil, fmt.Errorf("core: adaptive run needs a completed optimization cycle")
	}
	if cy.cfg.Dispatcher != nil {
		return nil, fmt.Errorf("core: adaptive execution is incompatible with distributed dispatch (replanning needs the sequential local scheduler)")
	}
	base := opts.Threshold
	if base <= 0 {
		base = DefaultReplanThreshold
	}
	maxReplans := opts.MaxReplans
	if maxReplans <= 0 {
		maxReplans = DefaultMaxReplans
	}
	st := &adaptState{
		cy:        cy,
		est:       cy.Estimator,
		skew:      opts.Skew,
		threshold: cy.Feedback.ReplanThreshold(base),
		remaining: maxReplans,
		actuals:   make(map[stats.Target]int64),
	}
	ar := &AdaptiveResult{Threshold: st.threshold}

	cur := make(map[int]*workflow.JoinTree, len(cy.Plans.Plans))
	for b, p := range cy.Plans.Plans {
		cur[b] = p.Tree
	}
	ar.Plans = cur

	// Metrics are forced on: the boundary checks read actuals off the live
	// plan's node metrics. Both segments — the first run and every resume
	// — skip the initial-plan observability filter, because the executed
	// trees are re-optimized, not initial.
	cfg := cy.cfg
	cfg.CollectMetrics = true
	eng := newEngine(cy.Analysis, cy.db, cfg)
	eng.AdaptCheck = st.check
	observe := cy.Selection.Observe
	run, err := eng.RunPlansObservingCtx(ctx, cur, cy.CSS, observe)
	for err != nil {
		var sig *engine.ReplanSignal
		if !errors.As(err, &sig) {
			ar.Run = run
			ar.Checks = st.checks
			return ar, fmt.Errorf("core: adaptive run: %w", err)
		}
		rec, rerr := st.replan(sig.Checkpoint, cur)
		if rerr != nil {
			ar.Run = run
			ar.Checks = st.checks
			return ar, rerr
		}
		ar.Replans = append(ar.Replans, rec)
		// Completed blocks' statistics are already in the checkpointed
		// write-once store; only the pending cone still needs taps.
		pending := make(map[int]bool)
		for bi := range cy.CSS.Analysis.Blocks {
			if _, ok := sig.Checkpoint.BlockOut[bi]; !ok {
				pending[bi] = true
			}
		}
		run, err = eng.ResumeObserving(ctx, sig.Checkpoint, cur, cy.CSS, selector.ScopeObserve(observe, pending))
	}
	ar.Run = run
	ar.Checks = st.checks
	cy.Optimized = run
	return ar, nil
}
