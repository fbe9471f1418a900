package engine

import (
	"context"
	"errors"
	"sort"
	"sync"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Distributed block dispatch. A run with Engine.Dispatch set schedules its
// blocks through a BlockDispatcher — in practice internal/serve's
// Coordinator, which leases each block to a worker process over HTTP —
// instead of executing them on local goroutines. The engine keeps
// everything else: the compiled plan and its dependency DAG, the Result
// layout, checkpoint seeding, sink routing, and the commit discipline. A
// remote block returns its boundary output, materialized tables,
// work-metric rows and a private statistics shard; the scheduler commits
// each block exactly once and merges the shard into the run's write-once
// store, so observed statistics are byte-identical however the blocks
// were placed.
//
// Robustness is structural, not best-effort: a dispatcher signals
// unrecoverable infrastructure loss with ErrWorkersLost, and the scheduler
// then degrades gracefully — it stops dispatching, treats the committed
// blocks as a checkpoint, and finishes the remaining cone in-process with
// the run's own blockRunner. The caller always gets either a complete
// Result or a typed *BlockFailure; never a silently partial one.

// ErrWorkersLost is the dispatcher's terminal signal: every worker is dead
// or unreachable past the dispatcher's retry budget. The scheduler reacts
// by falling back to in-process execution from the last checkpoint.
var ErrWorkersLost = errors.New("engine: all workers lost")

// DispatchSpec tells the dispatcher what run its workers must reproduce:
// the per-block join trees (nil = initial plans), the statistics to
// observe, and the observability mode. Workers reconstruct workflow, data
// and compiled plan deterministically on their side; the spec carries only
// what varies per run.
type DispatchSpec struct {
	// Plans maps block index to the join tree to execute (nil map or
	// missing entry = the block's initial tree).
	Plans map[int]*workflow.JoinTree
	// Observe lists the statistics to collect; empty for uninstrumented
	// runs.
	Observe []stats.Stat
	// Instrument reports whether the run is instrumented at all (a run can
	// be instrumented with an empty tap set on some blocks).
	Instrument bool
	// AnyPoint lifts the initial-plan observability filter (see
	// Engine.RunPlansObserving).
	AnyPoint bool
}

// RemoteBlock is one block's execution outcome as returned by a worker:
// exactly the state an in-process blockSink accumulates, plus the
// statistics shard the block's taps observed.
type RemoteBlock struct {
	// Out is the block's boundary output.
	Out *data.Table
	// Materialized holds the block's materialized targets (reject links,
	// explicit materializations).
	Materialized map[string]*data.Table
	// Rows is the block's work-metric contribution.
	Rows int64
	// Observed is the block's statistics shard (nil when uninstrumented).
	Observed *stats.Store
	// Degraded lists statistics whose observation failed permanently on
	// the worker.
	Degraded []FailedStat
	// Retries counts worker-side block attempts repeated after transient
	// faults.
	Retries int64
}

// DistSummary is the dispatcher's own accounting of a finished run.
type DistSummary struct {
	// Reassigned counts dispatch attempts that were retried, on the same
	// or another worker, after a lease expired or a request failed.
	Reassigned int64
	// LostWorkers lists worker addresses marked dead during the run.
	LostWorkers []string
}

// RunDispatch is one run's dispatch session.
type RunDispatch interface {
	// RunBlock executes one block remotely. The upstream map carries the
	// boundary outputs of every block this block reads from. An error
	// wrapping ErrWorkersLost means dispatch is permanently unavailable;
	// any other error is the block's own (deterministic) execution error.
	RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*RemoteBlock, error)
	// Slots bounds how many blocks the scheduler keeps in flight.
	Slots() int
	// Summary reports the session's fault-handling accounting so far.
	Summary() DistSummary
}

// BlockDispatcher opens dispatch sessions; internal/serve's Coordinator
// implements it.
type BlockDispatcher interface {
	DispatchRun(ctx context.Context, spec *DispatchSpec) (RunDispatch, error)
}

// DistReport records how a distributed run was actually placed; it rides
// on Result.Dist.
type DistReport struct {
	// Remote lists blocks executed on workers (ascending).
	Remote []int
	// Local lists blocks executed in-process after a fallback (ascending).
	Local []int
	// Reassigned counts dispatch attempts retried after lease expiry or
	// request failure.
	Reassigned int64
	// LostWorkers lists worker addresses marked dead during the run.
	LostWorkers []string
	// FellBack reports that the run degraded to in-process execution for
	// at least one block (all workers lost); the run still completed.
	FellBack bool
	// Reason is the fallback trigger, empty unless FellBack.
	Reason string
}

// runBlocksDist schedules the compiled blocks through a dispatch session,
// mirroring runBlocksDAG's commit discipline: ready blocks dispatch
// concurrently (bounded by the session's slots), the lowest-index ready
// block first, and on a permanent block error the lowest failing index is
// reported as a *BlockFailure carrying the checkpoint of what completed.
// When the session reports ErrWorkersLost, the remaining blocks — the
// pending cone — execute in-process from the committed state via the
// local runner, and the report marks the run degraded.
func runBlocksDist(plan *physical.Plan, localWorkers int, env *runEnv, out *Result, col *collector, disp BlockDispatcher, spec *DispatchSpec, local blockRunner) error {
	report := &DistReport{}
	out.Dist = report
	rd, err := disp.DispatchRun(env.ctx, spec)
	if err != nil {
		// The session could not even open (no reachable worker): the whole
		// run degrades to in-process execution.
		report.FellBack = true
		report.Reason = err.Error()
		err := runBlocksDAG(plan, localWorkers, env, out, local)
		report.Local = blocksRun(plan, out, nil)
		return err
	}

	deps := blockDeps(plan)
	slots := rd.Slots()
	if slots < 1 {
		slots = 1
	}
	if slots > len(plan.Blocks) {
		slots = len(plan.Blocks)
	}
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		started = make(map[int]bool, len(plan.Blocks))
		done    = make(map[int]bool, len(plan.Blocks))
		errs    = make(map[int]error)
		lost    error
		left    = len(plan.Blocks)
		preDone = make(map[int]bool, len(plan.Blocks))
	)
	for _, bp := range plan.Blocks {
		if _, ok := out.BlockOut[bp.Block.Index]; ok {
			started[bp.Block.Index] = true
			done[bp.Block.Index] = true
			preDone[bp.Block.Index] = true
			left--
		}
	}
	nextReady := func() *physical.BlockPlan {
		for _, bp := range plan.Blocks {
			if started[bp.Block.Index] {
				continue
			}
			ready := true
			for _, d := range deps[bp.Block.Index] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				return bp
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	dispatcher := func() {
		defer wg.Done()
		mu.Lock()
		defer mu.Unlock()
		for {
			if len(errs) > 0 || lost != nil || left == 0 {
				return
			}
			bp := nextReady()
			if bp == nil {
				cond.Wait()
				continue
			}
			idx := bp.Block.Index
			started[idx] = true
			upstream := make(map[int]*data.Table, len(deps[idx]))
			for _, d := range deps[idx] {
				upstream[d] = out.BlockOut[d]
			}
			mu.Unlock()
			rb, err := rd.RunBlock(env.ctx, idx, upstream)
			mu.Lock()
			switch {
			case err != nil && errors.Is(err, ErrWorkersLost):
				// Infrastructure loss, not a block error: hand the block
				// back so the local fallback re-runs it.
				started[idx] = false
				lost = err
			case err != nil:
				errs[idx] = err
				left--
			default:
				commitRemote(out, col, env, idx, rb)
				report.Remote = append(report.Remote, idx)
				done[idx] = true
				left--
			}
			cond.Broadcast()
		}
	}
	wg.Add(slots)
	for i := 0; i < slots; i++ {
		go dispatcher()
	}
	wg.Wait()
	sort.Ints(report.Remote)
	sum := rd.Summary()
	report.Reassigned = sum.Reassigned
	report.LostWorkers = sum.LostWorkers

	if len(errs) > 0 {
		idxs := make([]int, 0, len(errs))
		for i := range errs {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		return &BlockFailure{
			Block:      idxs[0],
			Checkpoint: checkpointOf(out, idxs),
			Err:        errs[idxs[0]],
		}
	}
	if lost != nil {
		// Graceful degradation: everything committed so far is a
		// checkpoint; the pending cone completes in-process. The result is
		// whole — only the placement degraded.
		report.FellBack = true
		report.Reason = lost.Error()
		if err := env.ctx.Err(); err != nil {
			return err
		}
		err := runBlocksDAG(plan, localWorkers, env, out, local)
		report.Local = blocksRun(plan, out, remoteOrSeeded(report.Remote, preDone))
		return err
	}
	return nil
}

// commitRemote folds one remote block's outcome into the run — the single
// commit point. Duplicate deliveries (a retried dispatch whose first
// response was lost) are impossible past the scheduler's started map, but
// the guard keeps the commit idempotent regardless.
func commitRemote(out *Result, col *collector, env *runEnv, idx int, rb *RemoteBlock) {
	if _, ok := out.BlockOut[idx]; ok {
		return
	}
	out.BlockOut[idx] = rb.Out
	for k, v := range rb.Materialized {
		out.Materialized[k] = v
	}
	out.Rows += rb.Rows
	env.retries.Add(rb.Retries)
	if col != nil {
		if rb.Observed != nil {
			col.store.Merge(rb.Observed)
		}
		for _, fs := range rb.Degraded {
			col.markFailed(fs.Stat, fs.Err)
		}
	}
}

// remoteOrSeeded builds the set of blocks that did not run locally: the
// remotely committed ones plus those already present from a checkpoint.
func remoteOrSeeded(remote []int, preDone map[int]bool) map[int]bool {
	m := make(map[int]bool, len(remote)+len(preDone))
	for _, i := range remote {
		m[i] = true
	}
	for i := range preDone {
		m[i] = true
	}
	return m
}

// blocksRun lists the blocks present in out that are not in skip,
// ascending — the blocks the local fallback actually executed.
func blocksRun(plan *physical.Plan, out *Result, skip map[int]bool) []int {
	var idxs []int
	for _, bp := range plan.Blocks {
		i := bp.Block.Index
		if skip[i] {
			continue
		}
		if _, ok := out.BlockOut[i]; ok {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	return idxs
}

// RunBlockCtx executes exactly one block of the workflow — the worker side
// of distributed dispatch. The caller supplies the boundary outputs of
// every upstream block; the engine compiles the same deterministic
// physical plan a full run would, executes just the requested block (with
// the usual per-attempt isolation, transient retry and fault injection),
// and returns the block's outcome plus a private statistics shard holding
// only what this block's taps observed.
func (e *Engine) RunBlockCtx(ctx context.Context, block int, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, anyPoint bool, upstream map[int]*data.Table) (*RemoteBlock, error) {
	plan, err := physical.Compile(e.An, e.DB, physical.Options{
		Plans: plans, Res: res, Observe: observe, AnyPoint: anyPoint, Reg: e.Reg,
	})
	if err != nil {
		return nil, err
	}
	var col *collector
	if res != nil {
		col = newCollector()
	}
	env := newRunEnv(ctx, newRowBudget(e.MaxRows), e.Faults, e.RetryMax, e.RetryBackoff)
	return runOneBlock(plan, block, col, env, upstream, e.interpreter(col, false))
}

// runOneBlock finds the compiled block, runs it with the shared
// fault-tolerance machinery, and snapshots the sink into a RemoteBlock.
func runOneBlock(plan *physical.Plan, block int, col *collector, env *runEnv, upstream map[int]*data.Table, run blockRunner) (*RemoteBlock, error) {
	var bp *physical.BlockPlan
	for _, b := range plan.Blocks {
		if b.Block.Index == block {
			bp = b
			break
		}
	}
	if bp == nil {
		return nil, errors.New("engine: no such block in compiled plan")
	}
	for _, d := range blockDeps(plan)[block] {
		if upstream[d] == nil {
			return nil, errors.New("engine: missing upstream boundary output for block dispatch")
		}
	}
	tbl, sink, err := env.runBlock(bp, upstream, run)
	if err != nil {
		return nil, err
	}
	rb := &RemoteBlock{
		Out:          tbl,
		Materialized: sink.materialized,
		Rows:         sink.rows,
		Degraded:     col.failedStats(),
		Retries:      env.retries.Load(),
	}
	if col != nil {
		rb.Observed = col.store
	}
	return rb, nil
}
