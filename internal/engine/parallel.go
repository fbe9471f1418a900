package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Inter-block parallelism. An ETL workflow's optimizable blocks form a DAG:
// block B depends on block A exactly when one of B's inputs reads A's
// boundary output (BlockInput.FromBlock). Blocks with no path between them
// touch disjoint state, so they can execute on separate goroutines. The
// scheduler below runs the compiled block plans with a bounded worker pool;
// every block writes its side effects (materialized tables, the row-work
// counter) into a private blockSink that the scheduler folds into the
// shared Result under its own lock, so block execution itself never touches
// shared maps.
//
// With workers <= 1 the scheduler degenerates to the plain topological loop
// the engines always used, reproducing sequential behavior exactly.

// rowBudget is the shared intermediate-cardinality guard: every counted row
// of the run charges it, across blocks and workers. A nil budget (MaxRows
// <= 0) never trips.
//
// Block retry builds a child budget per attempt: the child tracks what the
// attempt charged (so a failed attempt can refund it) and forwards every
// charge to the run's root budget, where the limit lives. The injected
// budget fault, when armed, rides on the child so it fires exactly once per
// attempt in whichever engine counts the first row — the same semantics at
// every worker count.
type rowBudget struct {
	limit  int64
	used   atomic.Int64
	parent *rowBudget
	// inject, when non-nil, is returned by the first add (simulated budget
	// exhaustion from the fault injector).
	inject     error
	injectOnce atomic.Bool
}

func newRowBudget(limit int64) *rowBudget {
	if limit <= 0 {
		return nil
	}
	return &rowBudget{limit: limit}
}

// child derives a per-attempt budget. With neither a parent limit nor an
// injected fault there is nothing to track, so nil (the free fast path)
// comes back.
func (b *rowBudget) child(inject error) *rowBudget {
	if b == nil && inject == nil {
		return nil
	}
	return &rowBudget{parent: b, inject: inject}
}

// add charges n rows and fails once the limit is crossed (or the injected
// exhaustion fires).
func (b *rowBudget) add(n int64) error {
	if b == nil {
		return nil
	}
	if b.inject != nil && b.injectOnce.CompareAndSwap(false, true) {
		return b.inject
	}
	used := b.used.Add(n)
	if b.parent != nil {
		return b.parent.add(n)
	}
	if b.limit > 0 && used > b.limit {
		return fmt.Errorf("intermediate-cardinality guard: run exceeded MaxRows=%d intermediate rows (join blowup from data skew or a bad join order; raise MaxRows or set 0 to disable)", b.limit)
	}
	return nil
}

// release refunds this child's accumulated charge from every ancestor, so
// a retried attempt starts from the budget state the failed attempt found.
func (b *rowBudget) release() {
	if b == nil || b.parent == nil {
		return
	}
	n := b.used.Load()
	for p := b.parent; p != nil; p = p.parent {
		p.used.Add(-n)
	}
}

// blockSink collects one block's side effects during execution. upstream
// holds the boundary outputs of the blocks this block reads from (complete
// before the block is scheduled), so chains never read the shared Result.
//
// The sink also carries the attempt's fault-tolerance state: the run
// context (polled at operator boundaries), the fault injector and the
// attempt number the injector's decisions key on. All nil/zero for plain
// runs — the interpreters' fast paths stay branch-cheap.
type blockSink struct {
	upstream     map[int]*data.Table
	materialized map[string]*data.Table
	rows         int64
	budget       *rowBudget

	ctx     context.Context
	flt     *faults.Injector
	attempt int
	block   int
}

func newBlockSink(budget *rowBudget) *blockSink {
	return &blockSink{materialized: make(map[string]*data.Table), budget: budget}
}

// count adds n rows to the block's work metric and charges the run's row
// budget.
func (s *blockSink) count(n int64) error {
	s.rows += n
	return s.budget.add(n)
}

// blockRunner executes one compiled block against its sink and returns the
// block's boundary output.
type blockRunner func(bp *physical.BlockPlan, sink *blockSink) (*data.Table, error)

// blockDeps returns the upstream block indices each block reads from.
func blockDeps(plan *physical.Plan) map[int][]int {
	deps := make(map[int][]int, len(plan.Blocks))
	for _, bp := range plan.Blocks {
		var d []int
		for _, in := range bp.Block.Inputs {
			if in.FromBlock >= 0 {
				d = append(d, in.FromBlock)
			}
		}
		deps[bp.Block.Index] = d
	}
	return deps
}

// runBlocksDAG executes every compiled block, respecting the block
// dependency DAG, with at most `workers` blocks in flight. Block outputs,
// materialized tables and row counters land in out. When several blocks are
// ready the lowest block index starts first, and on failure the error of
// the lowest failing block index is returned (as a *BlockFailure carrying
// the checkpoint of what did complete), so error reporting is deterministic
// regardless of goroutine timing.
//
// Blocks whose output is already present in out (a checkpoint seeded by
// Resume) are skipped: only the missing blocks — the failed block and its
// downstream cone — execute.
func runBlocksDAG(plan *physical.Plan, workers int, env *runEnv, out *Result, run blockRunner) error {
	deps := blockDeps(plan)
	upstreamOf := func(bp *physical.BlockPlan) map[int]*data.Table {
		up := make(map[int]*data.Table, len(deps[bp.Block.Index]))
		for _, d := range deps[bp.Block.Index] {
			up[d] = out.BlockOut[d]
		}
		return up
	}

	if workers <= 1 || len(plan.Blocks) <= 1 || env.adapt != nil {
		// Sequential: plan.Blocks is topologically ordered, so every
		// dependency is already in out.BlockOut when its reader runs. An
		// AdaptCheck also forces this path — the boundary-check sequence
		// must not depend on goroutine timing (see adapt.go).
		done := make(map[int]bool, len(plan.Blocks))
		for i := range out.BlockOut {
			done[i] = true
		}
		for bi, bp := range plan.Blocks {
			if _, ok := out.BlockOut[bp.Block.Index]; ok {
				continue // checkpointed
			}
			tbl, sink, err := env.runBlock(bp, upstreamOf(bp), run)
			if err != nil {
				return &BlockFailure{
					Block:      bp.Block.Index,
					Checkpoint: checkpointOf(out, []int{bp.Block.Index}),
					Err:        err,
				}
			}
			out.BlockOut[bp.Block.Index] = tbl
			for k, v := range sink.materialized {
				out.Materialized[k] = v
			}
			out.Rows += sink.rows
			done[bp.Block.Index] = true
			// The boundary check: with blocks still pending, ask whether the
			// actuals committed so far refute the estimates behind them.
			if env.adapt != nil && bi+1 < len(plan.Blocks) && env.adapt(plan, bp.Block.Index, done) {
				return &ReplanSignal{
					Block:      bp.Block.Index,
					Checkpoint: checkpointOf(out, nil),
				}
			}
		}
		return nil
	}

	if workers > len(plan.Blocks) {
		workers = len(plan.Blocks)
	}
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		started = make(map[int]bool, len(plan.Blocks))
		done    = make(map[int]bool, len(plan.Blocks))
		errs    = make(map[int]error)
		left    = len(plan.Blocks)
	)
	for _, bp := range plan.Blocks {
		if _, ok := out.BlockOut[bp.Block.Index]; ok {
			started[bp.Block.Index] = true
			done[bp.Block.Index] = true
			left--
		}
	}
	// nextReady picks the lowest-index block whose dependencies completed.
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
	worker := func() {
		defer wg.Done()
		mu.Lock()
		defer mu.Unlock()
		for {
			if len(errs) > 0 || left == 0 {
				return
			}
			bp := nextReady()
			if bp == nil {
				// Everything runnable is in flight (the topological order
				// guarantees progress while blocks remain and none failed).
				cond.Wait()
				continue
			}
			started[bp.Block.Index] = true
			upstream := upstreamOf(bp)
			mu.Unlock()
			tbl, sink, err := env.runBlock(bp, upstream, run)
			mu.Lock()
			if err != nil {
				errs[bp.Block.Index] = err
			} else {
				out.BlockOut[bp.Block.Index] = tbl
				for k, v := range sink.materialized {
					out.Materialized[k] = v
				}
				out.Rows += sink.rows
				done[bp.Block.Index] = true
			}
			left--
			cond.Broadcast()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
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
	return nil
}

// routeSinks fills out.Sinks from the block outputs (shared by both
// engines' RunPlans).
func routeSinks(an *workflow.Analysis, out *Result) error {
	for _, sink := range an.Graph.Sinks() {
		blk := an.BlockOf(sink.Inputs[0])
		if blk == nil {
			// The sink's input is a block terminal.
			for _, b := range an.Blocks {
				if b.Terminal == sink.Inputs[0] {
					blk = b
					break
				}
			}
		}
		if blk == nil {
			return fmt.Errorf("sink %q: cannot locate producing block", sink.ID)
		}
		out.Sinks[sink.Rel] = out.BlockOut[blk.Index]
	}
	return nil
}
