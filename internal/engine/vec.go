package engine

import (
	"fmt"
	"math"
	"time"

	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
)

// Columnar batch-engine interpreter. It executes the same compiled block
// plans as runBatchBlock, but over typed column vectors instead of row
// slices: filters mark rows in arena-allocated selection vectors, projects
// share column pointers, joins gather matched rows through a chained hash
// index, and every operator-lifetime vector comes from one arena per block
// attempt. Observable behavior — block outputs, materialized tables,
// observed statistics, the work metric, deterministic metrics, fault sites
// — is identical to the row interpreter; the equivalence suite enforces it.

// vecJoinChunk is how many pending join-output rows accumulate between row
// budget charges and cancellation polls (matches the row interpreter, so
// budget faults and MaxRows aborts fire after identical counted prefixes).
const vecJoinChunk = 4096

// vecBlock is one block attempt's columnar evaluation state.
type vecBlock struct {
	bp      *physical.BlockPlan
	col     *collector
	out     *blockSink
	metrics bool
	arena   *batch.Arena
	// batches and rels hold each evaluated node's output by node ID.
	batches []*batch.Batch
	rels    []string
}

// runVecBlock interprets one compiled block columnar batch-at-a-time: every
// node evaluates in topological order over vectors, feeding its taps over
// the whole output batch at once. All vectors live in one arena scoped to
// the attempt; only block outputs, materialized tables and statistic values
// are copied out.
func runVecBlock(bp *physical.BlockPlan, col *collector, out *blockSink, metrics bool) (*data.Table, error) {
	a := batch.GetArena()
	defer batch.PutArena(a)
	v := &vecBlock{
		bp: bp, col: col, out: out, metrics: metrics, arena: a,
		batches: make([]*batch.Batch, len(bp.Nodes)),
		rels:    make([]string, len(bp.Nodes)),
	}
	for _, n := range bp.Nodes {
		b, err := v.evalVec(n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.Label, err)
		}
		v.batches[n.ID] = b
	}
	root := bp.Root
	// The boundary output outlives the arena: copy it out.
	return v.batches[root.ID].Table(v.rels[root.ID], root.Attrs), nil
}

// evalVec evaluates one physical node over its input batches, counts its
// output rows against the work metric and row budget, and feeds its taps.
// Mirrors evalNode's structure (including metric attribution: operator time
// exclusive, tap observation timed separately).
func (v *vecBlock) evalVec(n *physical.Node) (*batch.Batch, error) {
	if err := v.out.ctxErr(); err != nil {
		return nil, err
	}
	if err := v.out.opFault(n); err != nil {
		return nil, err
	}
	var start time.Time
	var met *physical.Metrics
	if v.metrics {
		met = &n.Metrics
		start = time.Now()
	}
	var b *batch.Batch
	switch n.Kind {
	case physical.OpScan:
		src := n.Src
		if n.FromBlock >= 0 {
			up, ok := v.out.upstream[n.FromBlock]
			if !ok {
				return nil, fmt.Errorf("upstream block %d not yet executed", n.FromBlock)
			}
			src = up
		}
		var err error
		if b, err = batch.FromTable(src, v.arena); err != nil {
			return nil, err
		}
		v.rels[n.ID] = src.Rel
	case physical.OpFilter, physical.OpProject, physical.OpTransform,
		physical.OpGroupBy, physical.OpAggregateUDF:
		b = vecApplyOp(n, v.batches[n.Input.ID], v.arena)
		v.rels[n.ID] = v.rels[n.Input.ID]
	case physical.OpHashJoin:
		return v.evalVecJoin(n, met, start)
	case physical.OpMaterialize:
		in := v.batches[n.Input.ID]
		// The materialized table outlives the arena: copy the live rows out.
		v.out.materialized[n.Rel] = in.Table(v.rels[n.Input.ID], n.Attrs)
		v.rels[n.ID] = v.rels[n.Input.ID]
		// Materialization moves no rows: not counted, never tapped.
		return in, nil
	default:
		return nil, fmt.Errorf("unexpected physical operator %v", n.Kind)
	}
	if err := v.out.count(int64(b.Rows())); err != nil {
		return nil, err
	}
	taps, err := v.out.liveTaps(v.col, n.Taps)
	if err != nil {
		return nil, err
	}
	if met != nil {
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += int64(b.Rows())
		if len(taps) > 0 {
			tapStart := time.Now()
			for _, t := range taps {
				v.col.collectVec(t, b)
			}
			met.TapNanos += time.Since(tapStart).Nanoseconds()
		}
		return b, nil
	}
	for _, t := range taps {
		v.col.collectVec(t, b)
	}
	return b, nil
}

// vecApplyOp evaluates one per-row or blocking unary operator over a batch,
// allocating from the arena. The compiler already resolved columns and
// functions, so evaluation cannot fail.
func vecApplyOp(n *physical.Node, in *batch.Batch, a *batch.Arena) *batch.Batch {
	switch n.Kind {
	case physical.OpFilter:
		sel := batch.SelectPred(in.Cols[n.PredCol], in.Sel, in.N,
			n.Pred.Op, n.Pred.Const, a.Int32(in.Rows()))
		return &batch.Batch{Cols: in.Cols, N: in.N, Sel: sel}
	case physical.OpProject:
		// Zero copy: the projection is a column-pointer subset.
		cols := make([][]int64, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = in.Cols[c]
		}
		return &batch.Batch{Cols: cols, N: in.N, Sel: in.Sel}
	case physical.OpTransform:
		derived := a.Int64(in.N)
		buf := make([]int64, len(n.FnIns))
		if in.Sel != nil {
			for _, ri := range in.Sel {
				for i, c := range n.FnIns {
					buf[i] = in.Cols[c][ri]
				}
				derived[ri] = n.Fn(buf)
			}
		} else {
			for ri := 0; ri < in.N; ri++ {
				for i, c := range n.FnIns {
					buf[i] = in.Cols[c][ri]
				}
				derived[ri] = n.Fn(buf)
			}
		}
		cols := make([][]int64, len(in.Cols)+1)
		copy(cols, in.Cols)
		cols[len(in.Cols)] = derived
		return &batch.Batch{Cols: cols, N: in.N, Sel: in.Sel}
	case physical.OpGroupBy:
		return vecDedup(in, n.Cols, nil, a)
	case physical.OpAggregateUDF:
		return vecDedup(in, n.FnIns, n.Fn, a)
	default:
		return in
	}
}

// vecDedup emits one output row per distinct combination of the input's key
// columns, in first-seen order; with fn non-nil it appends the UDF value as
// a trailing column (the aggregate-UDF shape). Output vectors are
// arena-allocated at the worst-case size (every live row distinct) and
// sliced to the emitted count.
func vecDedup(in *batch.Batch, keyCols []int, fn UDF, a *batch.Arena) *batch.Batch {
	live := in.Rows()
	w := len(keyCols)
	outW := w
	if fn != nil {
		outW++
	}
	cols := make([][]int64, outW)
	for i := range cols {
		cols[i] = a.Int64(live)
	}
	seen := newKeySet()
	scratch := make([]int64, w)
	k := 0
	emit := func(ri int32) {
		for i, c := range keyCols {
			scratch[i] = in.Cols[c][ri]
		}
		if !seen.add(scratch) {
			return
		}
		for i := range scratch {
			cols[i][k] = scratch[i]
		}
		if fn != nil {
			cols[w][k] = fn(scratch)
		}
		k++
	}
	if in.Sel != nil {
		for _, ri := range in.Sel {
			emit(ri)
		}
	} else {
		for ri := 0; ri < in.N; ri++ {
			emit(int32(ri))
		}
	}
	for i := range cols {
		cols[i] = cols[i][:k]
	}
	return &batch.Batch{Cols: cols, N: k}
}

// evalVecJoin evaluates a hash-join node columnar: build a chained index on
// the right, probe with the left's live rows, gather the matched pairs into
// fresh arena vectors. Misses stay selection vectors over the input batches
// — collecting both sides' rejects costs no row materialization. The row
// budget is charged while the match set grows, so a blowing-up join aborts
// before gathering output columns.
func (v *vecBlock) evalVecJoin(n *physical.Node, met *physical.Metrics, start time.Time) (*batch.Batch, error) {
	left, right := v.batches[n.Left.ID], v.batches[n.Right.ID]
	lcol := left.Cols[n.LeftCol]
	ix := batch.NewJoinIndex(right.Cols[n.RightCol], right.Sel, right.N, v.arena)
	// marks flags matched build rows; every row of a matched key gets set
	// during the chain walk, making the unmarked set identical to the row
	// interpreter's key-based right-miss set. Allocated only when the plan
	// observes right rejects.
	var marks []bool
	if n.RightReject != nil {
		marks = make([]bool, right.N)
	}
	missSel := v.arena.Int32(left.Rows())
	nMiss := 0
	lidx := make([]int32, 0, left.Rows())
	ridx := make([]int32, 0, left.Rows())
	var pending int64
	probe := func(li int32) error {
		r := ix.First(lcol[li])
		if r < 0 {
			missSel[nMiss] = li
			nMiss++
			return nil
		}
		for ; r >= 0; r = ix.Next(r) {
			lidx = append(lidx, li)
			ridx = append(ridx, r)
			if marks != nil {
				marks[r] = true
			}
			pending++
		}
		if pending >= vecJoinChunk {
			if err := v.out.count(pending); err != nil {
				return err
			}
			pending = 0
			if err := v.out.ctxErr(); err != nil {
				return err
			}
			if len(lidx) > math.MaxInt32 {
				return fmt.Errorf("join output beyond the int32 selection-vector limit")
			}
		}
		return nil
	}
	if left.Sel != nil {
		for _, li := range left.Sel {
			if err := probe(li); err != nil {
				return nil, err
			}
		}
	} else {
		for li := 0; li < left.N; li++ {
			if err := probe(int32(li)); err != nil {
				return nil, err
			}
		}
	}
	if err := v.out.count(pending); err != nil {
		return nil, err
	}
	// Gather matched pairs into output vectors.
	m := len(lidx)
	wL, wR := len(left.Cols), len(right.Cols)
	cols := make([][]int64, wL+wR)
	for c := 0; c < wL; c++ {
		cols[c] = v.arena.Int64(m)
		batch.Gather(cols[c], left.Cols[c], lidx)
	}
	for c := 0; c < wR; c++ {
		cols[wL+c] = v.arena.Int64(m)
		batch.Gather(cols[wL+c], right.Cols[c], ridx)
	}
	joined := &batch.Batch{Cols: cols, N: m}
	v.rels[n.ID] = v.rels[n.Left.ID] + "⋈" + v.rels[n.Right.ID]
	leftMiss := &batch.Batch{Cols: left.Cols, N: left.N, Sel: missSel[:nMiss]}
	taps, err := v.out.liveTaps(v.col, n.Taps)
	if err != nil {
		return nil, err
	}
	var tapStart time.Time
	if met != nil {
		// Miss collection above is part of the join's own work; only the
		// statistic observation below counts as tap overhead.
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += int64(m)
		tapStart = time.Now()
	}
	for _, t := range taps {
		v.col.collectVec(t, joined)
	}
	if n.LeftReject != nil {
		if err := v.collectVecReject(n.LeftReject, leftMiss); err != nil {
			return nil, err
		}
	}
	if n.RightReject != nil {
		rightMissSel := v.arena.Int32(right.Rows())
		nr := 0
		if right.Sel != nil {
			for _, ri := range right.Sel {
				if !marks[ri] {
					rightMissSel[nr] = ri
					nr++
				}
			}
		} else {
			for ri := 0; ri < right.N; ri++ {
				if !marks[ri] {
					rightMissSel[nr] = int32(ri)
					nr++
				}
			}
		}
		rightMiss := &batch.Batch{Cols: right.Cols, N: right.N, Sel: rightMissSel[:nr]}
		if err := v.collectVecReject(n.RightReject, rightMiss); err != nil {
			return nil, err
		}
	}
	if met != nil {
		met.TapNanos += time.Since(tapStart).Nanoseconds()
	}
	if n.RejectLink != "" {
		// The reject link outlives the arena: copy the miss rows out.
		v.out.materialized[n.RejectLink] = leftMiss.Table(v.rels[n.Left.ID]+"!", n.Left.Attrs)
	}
	return joined, nil
}

// collectVecReject feeds one side's reject statistics: singletons over the
// miss batch directly, two-input variants through their auxiliary joins
// with the partner's cooked (chain-end) batch.
func (v *vecBlock) collectVecReject(rt *physical.RejectTaps, misses *batch.Batch) error {
	singles, err := v.out.liveTaps(v.col, rt.Singles)
	if err != nil {
		return err
	}
	for _, t := range singles {
		v.col.collectVec(t, misses)
	}
	aux, err := v.out.liveAux(v.col, rt.Aux)
	if err != nil {
		return err
	}
	for _, aj := range aux {
		ch := v.bp.Chains[aj.Partner]
		partner := v.batches[ch[len(ch)-1].ID]
		if partner == nil {
			continue
		}
		v.col.collectAux(aj, misses, partner, v.arena)
	}
	return nil
}
