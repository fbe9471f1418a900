package physical

import (
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Metrics holds one operator's runtime counters, populated by the engines
// when metrics collection is enabled (it stays zero otherwise). The
// counters split the paper's Section 5.4 observation-cost question into
// measurable parts: WallNanos is the time spent producing the node's rows,
// TapNanos is — timed separately — the overhead of the statistic taps
// attached to the node (observers, reject collection and the auxiliary
// union–division joins).
//
// Semantics:
//
//   - RowsOut and the derived RowsIn are execution-strategy independent:
//     both interpreters, at any worker count, report identical values (the
//     equivalence suite pins this).
//   - Calls counts operator invocations (1 per evaluation), excluded from
//     the deterministic report.
//   - WallNanos and TapNanos are per-operator (inputs are already
//     materialized when an operator runs). They are wall-clock and
//     therefore never part of deterministic output.
type Metrics struct {
	// RowsOut counts rows the operator emitted.
	RowsOut int64
	// Calls counts operator invocations.
	Calls int64
	// WallNanos is time spent producing the node's rows, excluding
	// TapNanos.
	WallNanos int64
	// TapNanos is the statistic-tap observation overhead at this node.
	TapNanos int64
}

// NodeMetrics is one node's metrics snapshot, carrying enough identity to
// render a report without the plan. Timing fields are excluded from JSON:
// the JSON form is the deterministic report, and wall times differ run to
// run (they remain available programmatically).
type NodeMetrics struct {
	Block int    `json:"block"`
	Node  int    `json:"node"`
	Op    string `json:"op"`
	Label string `json:"label"`
	// SE is the sub-expression the node produces (join and chain-end
	// nodes), 0 otherwise.
	SE expr.Set `json:"se,omitempty"`
	// ChainInput/ChainDepth place chain nodes (-1 input otherwise).
	ChainInput int `json:"chainInput"`
	ChainDepth int `json:"chainDepth"`
	// RowsIn is the sum of the input nodes' RowsOut (RowsOut for scans).
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	Calls   int64 `json:"-"`
	// WallNanos/TapNanos: see Metrics.
	WallNanos int64 `json:"-"`
	TapNanos  int64 `json:"-"`
}

// RunMetrics is the per-operator metrics of one execution, in deterministic
// order (block index, then node ID).
type RunMetrics struct {
	Nodes []NodeMetrics
}

// MetricsSnapshot extracts the plan's populated node metrics after a run.
// RowsIn is derived from the operator DAG: the sum of the direct inputs'
// RowsOut (a scan's RowsIn equals its RowsOut — every source row is read).
func (p *Plan) MetricsSnapshot() *RunMetrics {
	rm := &RunMetrics{}
	for _, bp := range p.Blocks {
		for _, n := range bp.Nodes {
			nm := NodeMetrics{
				Block:      bp.Block.Index,
				Node:       n.ID,
				Op:         n.Kind.String(),
				Label:      n.Label,
				SE:         n.SE,
				ChainInput: n.ChainInput,
				ChainDepth: n.ChainDepth,
				RowsOut:    n.Metrics.RowsOut,
				Calls:      n.Metrics.Calls,
				WallNanos:  n.Metrics.WallNanos,
				TapNanos:   n.Metrics.TapNanos,
			}
			switch {
			case n.Kind == OpScan:
				nm.RowsIn = n.Metrics.RowsOut
			case n.Kind == OpHashJoin:
				nm.RowsIn = n.Left.Metrics.RowsOut + n.Right.Metrics.RowsOut
			case n.Input != nil:
				nm.RowsIn = n.Input.Metrics.RowsOut
			}
			rm.Nodes = append(rm.Nodes, nm)
		}
	}
	return rm
}

// Totals sums operator wall time and tap overhead across all nodes — the
// run-level split between execution work and observation work.
func (rm *RunMetrics) Totals() (wallNanos, tapNanos int64) {
	for _, n := range rm.Nodes {
		wallNanos += n.WallNanos
		tapNanos += n.TapNanos
	}
	return wallNanos, tapNanos
}

// Actuals returns the actual cardinality of every statistic target the
// executed plan materialized: each block's sub-expressions (join and
// chain-end nodes) under their cooked Depth=-1 identity, and every chain
// point. These are the ground truths the estimate-feedback report compares
// derived estimates against.
func (rm *RunMetrics) Actuals() map[stats.Target]int64 {
	out := make(map[stats.Target]int64)
	for _, n := range rm.Nodes {
		if n.Op == OpMaterialize.String() {
			continue
		}
		if !n.SE.Empty() {
			out[stats.BlockSE(n.Block, n.SE)] = n.RowsOut
		}
		if n.ChainInput >= 0 {
			out[stats.ChainPoint(n.Block, n.ChainInput, n.ChainDepth)] = n.RowsOut
		}
	}
	return out
}

// BlockActuals reads one block's statistic-target cardinalities straight
// off the live plan's node metrics — the per-boundary slice of Actuals the
// adaptive check accumulates as blocks commit, without snapshotting the
// whole plan at every boundary.
func (p *Plan) BlockActuals(block int) map[stats.Target]int64 {
	out := make(map[stats.Target]int64)
	for _, bp := range p.Blocks {
		if bp.Block.Index != block {
			continue
		}
		for _, n := range bp.Nodes {
			if n.Kind == OpMaterialize {
				continue
			}
			if !n.SE.Empty() {
				out[stats.BlockSE(block, n.SE)] = n.Metrics.RowsOut
			}
			if n.ChainInput >= 0 {
				out[stats.ChainPoint(block, n.ChainInput, n.ChainDepth)] = n.Metrics.RowsOut
			}
		}
	}
	return out
}
