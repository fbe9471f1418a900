package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Fault tolerance for the engine. Three mechanisms compose here:
//
//   - Cancellation: every run threads a context.Context; the interpreters
//     poll it at operator boundaries and inside long joins, so a run stops
//     promptly without leaking goroutines and without leaving
//     half-observed statistics in the store (taps only record a complete
//     operator output).
//   - Block retry: a block whose attempt fails with a transient fault
//     re-runs from its (materialized) upstream inputs with capped
//     exponential backoff. Each attempt works against a private row-budget
//     child and a private sink, so a failed attempt refunds its budget and
//     leaves no partial side effects.
//   - Checkpoints: block boundary outputs plus the observed-statistics
//     store form a restartable checkpoint. A permanent failure returns a
//     *BlockFailure carrying the checkpoint of everything that did
//     complete; Resume re-runs only the missing blocks (the failed block's
//     downstream cone), skipping completed ones entirely.
//
// All of it is zero-cost when unused: nil context checks, nil injector and
// nil checkpoint keep the hot paths on their PR-3 fast paths.

// defaultRetryMax bounds per-block attempts (first try + retries).
const defaultRetryMax = 3

// defaultRetryBackoff is the base delay before the first retry; it doubles
// per attempt, capped at 100ms.
const defaultRetryBackoff = time.Millisecond

// FailedStat records one statistic whose observation failed permanently
// during a run (an injected permanent tap fault, or a store rejection).
// The run itself completes; the selector can re-plan around the gap.
type FailedStat struct {
	Stat stats.Stat
	Err  error
}

// Checkpoint is the restartable state of a partially completed run: every
// finished block's boundary output and side effects, plus the statistics
// observed so far. It is engine-independent (both engines produce and
// accept it, since both execute the same physical plan).
type Checkpoint struct {
	// BlockOut holds the boundary outputs of completed blocks.
	BlockOut map[int]*data.Table
	// Materialized holds completed blocks' materialized targets.
	Materialized map[string]*data.Table
	// Rows is the work metric accumulated by completed blocks.
	Rows int64
	// Observed holds the statistics collected so far (nil when the run was
	// uninstrumented).
	Observed *stats.Store
	// Failed lists the block indices whose execution failed (ascending).
	Failed []int
}

// BlockFailure is returned when a block fails permanently (after retries).
// It carries the checkpoint of everything that did complete, so the caller
// can resume instead of restarting from scratch.
type BlockFailure struct {
	// Block is the lowest failing block index.
	Block int
	// Checkpoint restores the completed blocks on Resume.
	Checkpoint *Checkpoint
	// Err is the block's final error.
	Err error
}

func (b *BlockFailure) Error() string { return fmt.Sprintf("block %d: %v", b.Block, b.Err) }
func (b *BlockFailure) Unwrap() error { return b.Err }

// runEnv carries the per-run fault-tolerance state shared by the block
// scheduler: cancellation, the shared row budget, the fault injector and
// the retry policy.
type runEnv struct {
	ctx      context.Context
	budget   *rowBudget
	flt      *faults.Injector
	retryMax int
	backoff  time.Duration
	retries  atomic.Int64
	// adapt, when non-nil, is consulted at block boundaries and forces
	// sequential block scheduling (see adapt.go).
	adapt AdaptCheck
}

func newRunEnv(ctx context.Context, budget *rowBudget, flt *faults.Injector, retryMax int, backoff time.Duration) *runEnv {
	if ctx == nil {
		ctx = context.Background()
	}
	if retryMax <= 0 {
		retryMax = defaultRetryMax
	}
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	return &runEnv{ctx: ctx, budget: budget, flt: flt, retryMax: retryMax, backoff: backoff}
}

// runBlock executes one block with per-attempt isolation and transient
// retry. Each attempt gets a fresh sink over a child row budget; a failed
// attempt refunds the child's charge before retrying, so retries never
// double-charge the run's MaxRows guard.
func (env *runEnv) runBlock(bp *physical.BlockPlan, upstream map[int]*data.Table, run blockRunner) (*data.Table, *blockSink, error) {
	idx := bp.Block.Index
	for attempt := 0; ; attempt++ {
		if err := env.ctx.Err(); err != nil {
			return nil, nil, err
		}
		if attempt > 0 {
			// A retry re-runs the whole block; whatever metrics the failed
			// attempt accumulated on this block's nodes would double-count
			// its rows (and corrupt the boundary actuals the adaptive check
			// reads), so the attempt starts from zero.
			for _, n := range bp.Nodes {
				n.Metrics = physical.Metrics{}
			}
		}
		var inject error
		if env.flt != nil {
			inject = env.flt.At(faults.Budget, fmt.Sprintf("budget:%d", idx), attempt)
		}
		sink := newBlockSink(env.budget.child(inject))
		sink.upstream = upstream
		sink.ctx = env.ctx
		sink.flt = env.flt
		sink.attempt = attempt
		sink.block = idx
		tbl, err := run(bp, sink)
		if err == nil {
			return tbl, sink, nil
		}
		sink.budget.release()
		if !faults.IsTransient(err) || attempt+1 >= env.retryMax {
			return nil, nil, err
		}
		env.retries.Add(1)
		if serr := env.sleep(attempt); serr != nil {
			return nil, nil, serr
		}
	}
}

// maxRetryBackoff caps the exponential backoff between attempts.
const maxRetryBackoff = 100 * time.Millisecond

// sleep waits out the capped exponential backoff before retry `attempt`+1,
// returning early if the run is cancelled. The doubling saturates at the
// cap instead of shifting: `backoff << attempt` overflows to a negative
// duration for large attempt counts, which would fire the timer instantly
// and turn the backoff into a hot retry loop. An already-cancelled context
// returns before the timer is even armed.
func (env *runEnv) sleep(attempt int) error {
	if err := env.ctx.Err(); err != nil {
		return err
	}
	d := env.backoff
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d <<= 1
	}
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-env.ctx.Done():
		return env.ctx.Err()
	case <-t.C:
		return nil
	}
}

// ctxErr polls the run's cancellation; the batch interpreter calls it at
// every operator boundary.
func (s *blockSink) ctxErr() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// opFault asks the injector whether this node's evaluation fails on the
// current attempt. Sites are keyed by block and node ID, which the
// deterministic compiler assigns identically across engines and worker
// counts, so both engines fail (and recover) at the same points.
func (s *blockSink) opFault(n *physical.Node) error {
	if s.flt == nil {
		return nil
	}
	kind := faults.Operator
	if n.Kind == physical.OpScan {
		kind = faults.SourceRead
	}
	return s.flt.At(kind, fmt.Sprintf("op:%d:%d", s.block, n.ID), s.attempt)
}

// liveTaps filters a tap list through the fault injector: a transient tap
// fault fails the attempt (the retry re-observes), a permanent one marks
// the statistic degraded in the collector and drops the tap so the block
// still completes. With no injector or no instrumentation the input slice
// is returned untouched.
func (s *blockSink) liveTaps(col *collector, taps []physical.Tap) ([]physical.Tap, error) {
	if s.flt == nil || col == nil || len(taps) == 0 {
		return taps, nil
	}
	live := taps[:0:0]
	for _, t := range taps {
		// Tap faults model the observation side-memory exhausting; sketch
		// taps hold a fixed few hundred bytes no matter what flows past, so
		// the injector is never consulted for them — they are the rung the
		// degradation ladder retreats to when exact taps keep failing.
		if t.Stat.Kind.Approx() {
			live = append(live, t)
			continue
		}
		err := s.flt.At(faults.Tap, tapSite(t.Stat), s.attempt)
		if err == nil {
			live = append(live, t)
			continue
		}
		if faults.IsTransient(err) {
			return nil, err
		}
		col.markFailed(t.Stat, err)
	}
	return live, nil
}

// liveAux is liveTaps for compiled auxiliary reject joins.
func (s *blockSink) liveAux(col *collector, aux []*physical.AuxJoin) ([]*physical.AuxJoin, error) {
	if s.flt == nil || col == nil || len(aux) == 0 {
		return aux, nil
	}
	live := aux[:0:0]
	for _, a := range aux {
		if a.Stat.Kind.Approx() {
			live = append(live, a)
			continue
		}
		err := s.flt.At(faults.Tap, tapSite(a.Stat), s.attempt)
		if err == nil {
			live = append(live, a)
			continue
		}
		if faults.IsTransient(err) {
			return nil, err
		}
		col.markFailed(a.Stat, err)
	}
	return live, nil
}

// tapSite renders a statistic's engine-independent fault site: the
// comparable statistic key, identical however the plan is executed.
func tapSite(s stats.Stat) string { return fmt.Sprintf("tap:%v", s.Key()) }

// checkpointOf snapshots a quiescent partial result as a checkpoint.
func checkpointOf(out *Result, failed []int) *Checkpoint {
	return &Checkpoint{
		BlockOut:     out.BlockOut,
		Materialized: out.Materialized,
		Rows:         out.Rows,
		Observed:     out.Observed,
		Failed:       failed,
	}
}

// seedFrom pre-loads a result with a checkpoint's completed state; the
// block scheduler then skips every block that already has an output.
func seedFrom(out *Result, cp *Checkpoint) {
	if cp == nil {
		return
	}
	for k, v := range cp.BlockOut {
		out.BlockOut[k] = v
	}
	for k, v := range cp.Materialized {
		out.Materialized[k] = v
	}
	out.Rows += cp.Rows
}
