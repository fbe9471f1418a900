// Package css generates candidate statistics sets (CSSs) for every
// statistic needed to cost any reordering of an ETL workflow, implementing
// Section 4 of Halasipuram et al. (EDBT 2014): the per-operator rules of
// Tables 2–5 (select, project, join, group-by, transform), the identity
// rules I1/I2, and the union–division rules J4/J5 that exploit reject
// links. Algorithm 1's worklist drives rule application.
package css

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Options control CSS generation.
type Options struct {
	// UnionDivision enables rules J4/J5, which derive statistics of
	// unobservable SEs from an observable super-SE plus reject-link
	// statistics. Figures 9 and 11 of the paper sweep this switch.
	UnionDivision bool
	// CrossBlock enables deriving a block input's statistics from the
	// upstream block's statistics through the boundary operator (rules
	// G1/G2, U1/U2 and pass-through at materialization points).
	CrossBlock bool
	// FKShortcut enables the foreign-key metadata rule of Section 3.2.2: a
	// look-up join's output cardinality equals the fact side's.
	FKShortcut bool
}

// DefaultOptions enable every rule family.
func DefaultOptions() Options {
	return Options{UnionDivision: true, CrossBlock: true, FKShortcut: true}
}

// Result is the output of CSS generation for a whole workflow: the
// statistic universe S, the candidate statistics sets per statistic, the
// required set S_C (cardinalities of every SE of every block), and the
// observability classification S_O.
//
// Every statistic of the universe has a dense ID, its index in Stats, and
// the per-statistic fields are slices indexed by ID. Callers holding a
// stats.Stat find its ID with ID.
type Result struct {
	Analysis *workflow.Analysis
	// Spaces holds one enumerated plan space per optimizable block.
	Spaces []*expr.Space
	// Stats is the universe S of statistics mentioned anywhere, in
	// canonical order (statKeyLess).
	Stats []stats.Stat
	// CSS lists each statistic's candidate statistics sets (excluding the
	// trivial CSS, which is represented by direct observation).
	CSS [][]Set
	// Required is S_C: the cardinality statistics of every SE.
	Required []stats.Stat
	// Observable is S_O: statistics that instrumentation of the initial
	// plan can observe directly (including reject-link statistics that
	// need an added reject link, marked in NeedsRejectLink).
	Observable []bool
	// NeedsRejectLink marks observable statistics that require adding an
	// explicit reject link (and an auxiliary join for multi-input reject
	// targets) to the initial plan, per Section 4.1.2.
	NeedsRejectLink []bool

	opt    Options
	blocks []*blockCtx
	index  statIndex
}

// Set is one candidate statistics set: the stats.CSS the estimation layer
// evaluates, with its inputs also given as IDs, in the same order.
type Set struct {
	stats.CSS
	IDs []int
}

// Space returns the plan space of block b.
func (r *Result) Space(b int) *expr.Space { return r.Spaces[b] }

// Options returns the options the result was generated with.
func (r *Result) Options() Options { return r.opt }

// NumCSS returns the total number of candidate statistics sets across all
// statistics (the quantity plotted in Figure 9 of the paper).
func (r *Result) NumCSS() int {
	n := 0
	for _, cs := range r.CSS {
		n += len(cs)
	}
	return n
}

// NumSEs returns the total number of sub-expressions across blocks.
func (r *Result) NumSEs() int {
	n := 0
	for _, sp := range r.Spaces {
		n += len(sp.SEs)
	}
	return n
}

// blockCtx caches per-block derived structure used by the rules.
type blockCtx struct {
	idx int
	blk *workflow.Block
	sp  *expr.Space
	// chainAttrs[i][d] is the schema of input i's chain at depth d
	// (0 = raw source or upstream boundary, len(ops) = cooked input).
	chainAttrs [][][]workflow.Attr
}

// chainLen returns the number of pushed-down operators on input i.
func (bc *blockCtx) chainLen(i int) int { return len(bc.blk.Inputs[i].Ops) }

// newBlockCtx enumerates the block's plan space and computes chain-point
// schemas.
func newBlockCtx(an *workflow.Analysis, idx int) (*blockCtx, error) {
	blk := an.Blocks[idx]
	sp, err := expr.Enumerate(blk)
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", idx, err)
	}
	bc := &blockCtx{idx: idx, blk: blk, sp: sp}
	for i := range blk.Inputs {
		in := &blk.Inputs[i]
		raw := an.Schema[in.EntryNode]
		attrs := [][]workflow.Attr{raw}
		cur := raw
		for _, op := range in.Ops {
			cur = applyOpSchema(cur, op)
			attrs = append(attrs, cur)
		}
		bc.chainAttrs = append(bc.chainAttrs, attrs)
	}
	return bc, nil
}

// applyOpSchema advances a schema across one unary operator.
func applyOpSchema(in []workflow.Attr, op *workflow.Node) []workflow.Attr {
	switch op.Kind {
	case workflow.KindProject:
		return workflow.SortAttrs(append([]workflow.Attr(nil), op.Cols...))
	case workflow.KindTransform:
		out := append([]workflow.Attr(nil), in...)
		found := false
		for _, a := range out {
			if a == op.Transform.Out {
				found = true
				break
			}
		}
		if !found {
			out = append(out, op.Transform.Out)
		}
		return workflow.SortAttrs(out)
	default: // select keeps the schema
		return in
	}
}

// memberAt returns a physical attribute from rep's join-equivalence class
// that exists in input i's chain schema at depth d, or false.
func (bc *blockCtx) memberAt(i, d int, rep workflow.Attr) (workflow.Attr, bool) {
	schema := bc.chainAttrs[i][d]
	for _, m := range bc.sp.ClassMembers(rep) {
		for _, a := range schema {
			if a == m {
				return a, true
			}
		}
	}
	return workflow.Attr{}, false
}

// membersAt resolves a class-representative attribute list to physical
// attributes at a chain point; ok is false when any attribute is absent.
func (bc *blockCtx) membersAt(i, d int, reps []workflow.Attr) ([]workflow.Attr, bool) {
	out := make([]workflow.Attr, 0, len(reps))
	for _, rep := range reps {
		a, ok := bc.memberAt(i, d, rep)
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// seHasAttrs reports whether every class representative has a member in the
// (cooked) SE's schema.
func (bc *blockCtx) seHasAttrs(se expr.Set, reps []workflow.Attr) bool {
	for _, rep := range reps {
		if _, ok := bc.sp.MemberIn(se, rep); !ok {
			return false
		}
	}
	return true
}

// BoundaryClass translates a downstream block's class-representative
// attribute into the upstream block's class representative, across the
// boundary feeding input i of block. It is the attribute mapping behind the
// cross-block rules (B0/G2/U2) and their numeric evaluation.
func (r *Result) BoundaryClass(block, input int, a workflow.Attr) (workflow.Attr, error) {
	bc := r.blocks[block]
	in := bc.blk.Inputs[input]
	if in.FromBlock < 0 {
		return workflow.Attr{}, fmt.Errorf("css: input %d of block %d is not a block boundary", input, block)
	}
	phys, ok := bc.memberAt(input, 0, a)
	if !ok {
		return workflow.Attr{}, fmt.Errorf("css: attribute %v not present at boundary of block %d input %d", a, block, input)
	}
	return r.blocks[in.FromBlock].sp.ClassOf(phys), nil
}

// ChainDepth returns the number of pushed-down operators on the given
// input, i.e. the depth of the cooked chain point.
func (r *Result) ChainDepth(block, input int) int {
	return r.blocks[block].chainLen(input)
}

// PhysicalAttrs resolves a statistic's class-representative attributes to
// the physical attributes present at the statistic's target, for use by the
// instrumentation and estimation layers.
func (r *Result) PhysicalAttrs(s stats.Stat) ([]workflow.Attr, error) {
	bc := r.blocks[s.Target.Block]
	if s.Target.IsChainPoint() {
		i := s.Target.Set.Lowest()
		phys, ok := bc.membersAt(i, s.Target.Depth, s.Attrs)
		if !ok {
			return nil, fmt.Errorf("stat %v: attrs not resolvable at chain point", s.Key())
		}
		return phys, nil
	}
	out := make([]workflow.Attr, 0, len(s.Attrs))
	for _, rep := range s.Attrs {
		var phys workflow.Attr
		found := false
		// Prefer a member owned by the target's own inputs; for reject
		// targets the replaced input still carries its attributes.
		if m, ok := bc.sp.MemberIn(s.Target.Set, rep); ok {
			phys, found = m, true
		}
		if !found {
			return nil, fmt.Errorf("stat %v: attribute class %v absent from target", s.Key(), rep)
		}
		out = append(out, phys)
	}
	return out, nil
}
