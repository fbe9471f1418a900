package physical

import (
	"fmt"
	"strings"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Options tune one compilation.
type Options struct {
	// Plans overrides the join tree per block (nil map or missing entry =
	// the designed initial tree).
	Plans map[int]*workflow.JoinTree
	// Res classifies statistic observability and resolves the physical
	// attributes of taps; nil compiles an uninstrumented plan.
	Res *css.Result
	// Observe lists the statistics to attach as taps.
	Observe []stats.Stat
	// AnyPoint drops the initial-plan observability filter: every
	// statistic is registered and attached wherever the compiled plans
	// actually produce its target (the pay-as-you-go exploration mode).
	// Taps whose columns cannot be resolved at their point are silently
	// dropped instead of failing the compilation.
	AnyPoint bool
	// Reg resolves transform UDF names (nil = DefaultRegistry).
	Reg Registry
}

// seKey addresses a cooked sub-expression of a block.
type seKey struct {
	block int
	set   expr.Set
}

// compiler carries the tap index: the observable statistics of the
// selection keyed by observation point — chain points (block, input,
// depth), cooked SEs (block, set) and reject singletons (block, input,
// edge). This replaces the engines' runtime tap routing.
type compiler struct {
	an       *workflow.Analysis
	db       DB
	reg      Registry
	res      *css.Result
	anyPoint bool

	chain  map[[3]int][]stats.Stat
	se     map[seKey][]stats.Stat
	reject map[[3]int][]stats.Stat
}

// Compile lowers every block of the analysis into a physical plan over the
// database, with the statistics of opt.Observe attached as taps at their
// observation points. Unless opt.AnyPoint is set, statistics not observable
// under the initial plan are skipped (they are derived later by the
// estimator).
func Compile(an *workflow.Analysis, db DB, opt Options) (*Plan, error) {
	reg := opt.Reg
	if reg == nil {
		reg = DefaultRegistry()
	}
	c := &compiler{
		an: an, db: db, reg: reg, res: opt.Res, anyPoint: opt.AnyPoint,
		chain:  make(map[[3]int][]stats.Stat),
		se:     make(map[seKey][]stats.Stat),
		reject: make(map[[3]int][]stats.Stat),
	}
	if opt.Res != nil {
		for _, s := range opt.Observe {
			if !opt.AnyPoint && !opt.Res.StatObservable(s) {
				continue
			}
			tgt := s.Target
			switch {
			case tgt.IsChainPoint():
				k := [3]int{tgt.Block, tgt.Set.Lowest(), tgt.Depth}
				c.chain[k] = append(c.chain[k], s)
			case tgt.IsReject():
				k := [3]int{tgt.Block, tgt.RejectInput, tgt.RejectEdge}
				c.reject[k] = append(c.reject[k], s)
			default:
				k := seKey{tgt.Block, tgt.Set}
				c.se[k] = append(c.se[k], s)
			}
		}
	}
	p := &Plan{An: an}
	for _, blk := range an.Blocks {
		tree := blk.Initial
		if opt.Plans != nil {
			if t, ok := opt.Plans[blk.Index]; ok && t != nil {
				tree = t
			}
		}
		bp, err := c.compileBlock(p, blk, tree)
		if err != nil {
			return nil, fmt.Errorf("compile block %d: %w", blk.Index, err)
		}
		p.Blocks = append(p.Blocks, bp)
	}
	return p, nil
}

func (c *compiler) compileBlock(p *Plan, blk *workflow.Block, tree *workflow.JoinTree) (*BlockPlan, error) {
	bp := &BlockPlan{Block: blk, Tree: tree, Chains: make([][]*Node, len(blk.Inputs))}
	add := func(n *Node) *Node {
		n.ID = len(bp.Nodes)
		bp.Nodes = append(bp.Nodes, n)
		return n
	}
	for i := range blk.Inputs {
		chain, err := c.compileChain(p, blk, i, add)
		if err != nil {
			return nil, fmt.Errorf("input %d (%s): %w", i, blk.Inputs[i].Name, err)
		}
		bp.Chains[i] = chain
	}
	var root *Node
	if tree == nil {
		if len(blk.Inputs) != 1 {
			return nil, fmt.Errorf("join-free block with %d inputs", len(blk.Inputs))
		}
		root = bp.Chains[0][len(bp.Chains[0])-1]
	} else {
		var err error
		root, err = c.compileTree(blk, tree, bp, add)
		if err != nil {
			return nil, err
		}
		bp.JoinRoot = root
	}
	for _, op := range blk.TopOps {
		n, err := c.compileOp(root, op)
		if err != nil {
			return nil, fmt.Errorf("top op %q: %w", op.ID, err)
		}
		add(n)
		bp.TopNodes = append(bp.TopNodes, n)
		root = n
	}
	bp.Root = root
	return bp, nil
}

// compileChain lowers input i's scan and pushed-down operators, attaching
// the chain-point taps at every depth (the cooked end doubles as the
// singleton SE).
func (c *compiler) compileChain(p *Plan, blk *workflow.Block, i int, add func(*Node) *Node) ([]*Node, error) {
	in := blk.Inputs[i]
	scan := &Node{Kind: OpScan, FromBlock: -1, ChainInput: i, Edge: -1}
	switch {
	case in.SourceRel != "":
		src, ok := c.db[in.SourceRel]
		if !ok {
			return nil, fmt.Errorf("relation %q not in database", in.SourceRel)
		}
		scan.Src = src
		scan.SourceRel = in.SourceRel
		scan.Attrs = src.Attrs
		scan.Label = "scan " + in.SourceRel
	case in.FromBlock >= 0:
		up := p.Blocks[in.FromBlock] // blocks compile in topological order
		scan.FromBlock = in.FromBlock
		scan.Attrs = up.Root.Attrs
		scan.Label = fmt.Sprintf("scan block%d", in.FromBlock)
	default:
		return nil, fmt.Errorf("input %d has neither source nor upstream block", i)
	}
	if err := c.attachChainTaps(blk, scan, i, 0, len(in.Ops)); err != nil {
		return nil, err
	}
	add(scan)
	chain := []*Node{scan}
	cur := scan
	for d, op := range in.Ops {
		n, err := c.compileOp(cur, op)
		if err != nil {
			return nil, fmt.Errorf("chain op %q: %w", op.ID, err)
		}
		n.ChainInput, n.ChainDepth = i, d+1
		if err := c.attachChainTaps(blk, n, i, d+1, len(in.Ops)); err != nil {
			return nil, err
		}
		add(n)
		chain = append(chain, n)
		cur = n
	}
	return chain, nil
}

// compileOp lowers one unary operator — the single definition of operator
// schema evolution shared by chains and top operators, and (through the
// interpreters) by every execution.
func (c *compiler) compileOp(in *Node, op *workflow.Node) (*Node, error) {
	n := &Node{Input: in, Origin: op.ID, ChainInput: -1, FromBlock: -1, Edge: -1}
	switch op.Kind {
	case workflow.KindSelect:
		col := idxOf(in.Attrs, op.Pred.Attr)
		if col < 0 {
			return nil, fmt.Errorf("select attr %s not in schema", op.Pred.Attr)
		}
		n.Kind, n.Pred, n.PredCol = OpFilter, op.Pred, col
		n.Attrs = in.Attrs
		n.Label = "filter " + op.Pred.String()
	case workflow.KindProject:
		cols, err := colsOf(in.Attrs, op.Cols)
		if err != nil {
			return nil, fmt.Errorf("project: %w", err)
		}
		n.Kind, n.Cols = OpProject, cols
		n.Attrs = append([]workflow.Attr(nil), op.Cols...)
		n.Label = "project " + attrList(op.Cols)
	case workflow.KindTransform:
		fn, ok := c.reg[op.Transform.Fn]
		if !ok {
			return nil, fmt.Errorf("unknown UDF %q", op.Transform.Fn)
		}
		ins, err := colsOf(in.Attrs, op.Transform.Ins)
		if err != nil {
			return nil, fmt.Errorf("transform: %w", err)
		}
		n.Kind, n.Fn, n.FnName, n.FnIns = OpTransform, fn, op.Transform.Fn, ins
		n.Attrs = append(append([]workflow.Attr(nil), in.Attrs...), op.Transform.Out)
		n.Label = fmt.Sprintf("transform %s(%s)→%s", op.Transform.Fn, attrList(op.Transform.Ins), op.Transform.Out)
	case workflow.KindGroupBy:
		cols, err := colsOf(in.Attrs, op.Cols)
		if err != nil {
			return nil, fmt.Errorf("group-by: %w", err)
		}
		n.Kind, n.Cols = OpGroupBy, cols
		n.Attrs = append([]workflow.Attr(nil), op.Cols...)
		n.Label = "groupby " + attrList(op.Cols)
	case workflow.KindAggregateUDF:
		fn, ok := c.reg[op.Transform.Fn]
		if !ok {
			return nil, fmt.Errorf("unknown aggregate UDF %q", op.Transform.Fn)
		}
		ins, err := colsOf(in.Attrs, op.Transform.Ins)
		if err != nil {
			return nil, fmt.Errorf("aggregate: %w", err)
		}
		n.Kind, n.Fn, n.FnName, n.FnIns = OpAggregateUDF, fn, op.Transform.Fn, ins
		attrs := make([]workflow.Attr, 0, len(op.Transform.Ins)+1)
		attrs = append(attrs, op.Transform.Ins...)
		attrs = append(attrs, op.Transform.Out)
		n.Attrs = attrs
		n.Label = fmt.Sprintf("aggudf %s(%s)→%s", op.Transform.Fn, attrList(op.Transform.Ins), op.Transform.Out)
	case workflow.KindMaterialize:
		n.Kind, n.Rel = OpMaterialize, op.Rel
		n.Attrs = in.Attrs
		n.Label = "materialize " + op.Rel
	default:
		return nil, fmt.Errorf("unexpected operator kind %v in block", op.Kind)
	}
	return n, nil
}

// compileTree lowers a join tree bottom-up. Leaves resolve to the cooked
// chain-end nodes; internal nodes become hash joins with normalized sides,
// SE taps and reject instrumentation.
func (c *compiler) compileTree(blk *workflow.Block, t *workflow.JoinTree, bp *BlockPlan, add func(*Node) *Node) (*Node, error) {
	if t.IsLeaf() {
		ch := bp.Chains[t.Leaf]
		return ch[len(ch)-1], nil
	}
	left, err := c.compileTree(blk, t.Left, bp, add)
	if err != nil {
		return nil, err
	}
	right, err := c.compileTree(blk, t.Right, bp, add)
	if err != nil {
		return nil, err
	}
	edge := blk.Joins[t.Join]
	la, ra := edge.LeftAttr, edge.RightAttr
	// Normalize the attributes to the sides as executed.
	if idxOf(left.Attrs, la) < 0 {
		la, ra = ra, la
	}
	lc, rc := idxOf(left.Attrs, la), idxOf(right.Attrs, ra)
	if lc < 0 || rc < 0 {
		return nil, fmt.Errorf("join %q: attrs %s/%s not found (schemas %v / %v)",
			edge.Node, la, ra, left.Attrs, right.Attrs)
	}
	n := &Node{
		Kind: OpHashJoin, Origin: edge.Node, ChainInput: -1, FromBlock: -1,
		Left: left, Right: right, Edge: t.Join, LeftCol: lc, RightCol: rc,
		Attrs: append(append([]workflow.Attr(nil), left.Attrs...), right.Attrs...),
		SE:    left.SE.Union(right.SE),
		Label: fmt.Sprintf("join %s=%s", la, ra),
	}
	if err := c.attach(n, c.se[seKey{blk.Index, n.SE}]); err != nil {
		return nil, err
	}
	// Union–division reject instrumentation: a side that is a bare input
	// joined over this edge can feed reject statistics.
	if left.SE.Len() == 1 {
		n.LeftReject, err = c.compileReject(blk, bp, left.SE.Lowest(), t.Join, left.Attrs)
		if err != nil {
			return nil, err
		}
	}
	if right.SE.Len() == 1 {
		n.RightReject, err = c.compileReject(blk, bp, right.SE.Lowest(), t.Join, right.Attrs)
		if err != nil {
			return nil, err
		}
	}
	// A designed reject link materializes the left side's misses.
	if g := c.an.Graph.Node(edge.Node); g != nil && g.Join != nil && g.Join.RejectLink {
		n.RejectLink = string(edge.Node) + ".reject"
	}
	add(n)
	return n, nil
}

// compileReject binds the reject statistics registered at (input t, edge f)
// against the miss-row schema: singletons observe the misses directly,
// two-input variants compile to auxiliary joins with their partner input
// (wider variants are derived, not observed).
func (c *compiler) compileReject(blk *workflow.Block, bp *BlockPlan, t, f int, missAttrs []workflow.Attr) (*RejectTaps, error) {
	list := c.reject[[3]int{blk.Index, t, f}]
	if len(list) == 0 {
		return nil, nil
	}
	rt := &RejectTaps{Input: t, Edge: f}
	for _, s := range list {
		rest := s.Target.Set.Without(expr.NewSet(t))
		if rest.Empty() {
			tap, err := c.resolveTap(s, missAttrs)
			if err != nil {
				if c.anyPoint {
					continue
				}
				return nil, err
			}
			rt.Singles = append(rt.Singles, tap)
			continue
		}
		if rest.Len() != 1 {
			continue
		}
		r := rest.Lowest()
		g := -1
		for j, e := range blk.Joins {
			if e.LeftInput == t && e.RightInput == r || e.LeftInput == r && e.RightInput == t {
				g = j
				break
			}
		}
		if g < 0 {
			continue
		}
		la, ra := blk.Joins[g].LeftAttr, blk.Joins[g].RightAttr
		if idxOf(missAttrs, la) < 0 {
			la, ra = ra, la
		}
		partner := bp.Chains[r][len(bp.Chains[r])-1]
		mc, pc := idxOf(missAttrs, la), idxOf(partner.Attrs, ra)
		if mc < 0 || pc < 0 {
			continue // the runtime join would fail; the statistic is skipped
		}
		attrs := append(append([]workflow.Attr(nil), missAttrs...), partner.Attrs...)
		tap, err := c.resolveTap(s, attrs)
		if err != nil {
			continue // unresolvable aux statistics are skipped, as at runtime
		}
		rt.Aux = append(rt.Aux, &AuxJoin{
			Stat: s, Partner: r, MissCol: mc, PartnerCol: pc, Attrs: attrs, Cols: tap.Cols,
		})
	}
	if len(rt.Singles) == 0 && len(rt.Aux) == 0 {
		return nil, nil
	}
	return rt, nil
}

// attachChainTaps attaches the statistics registered at chain point
// (block, input, depth); the cooked end of the chain doubles as the
// singleton SE.
func (c *compiler) attachChainTaps(blk *workflow.Block, n *Node, input, depth, chainLen int) error {
	if err := c.attach(n, c.chain[[3]int{blk.Index, input, depth}]); err != nil {
		return err
	}
	if depth == chainLen {
		n.SE = expr.NewSet(input)
		if err := c.attach(n, c.se[seKey{blk.Index, n.SE}]); err != nil {
			return err
		}
	}
	return nil
}

// attach resolves and appends taps for the listed statistics against the
// node's schema. With AnyPoint, unresolvable taps are dropped (the plans
// under exploration may not carry a statistic's attributes everywhere).
func (c *compiler) attach(n *Node, list []stats.Stat) error {
	for _, s := range list {
		tap, err := c.resolveTap(s, n.Attrs)
		if err != nil {
			if c.anyPoint {
				continue
			}
			return err
		}
		n.Taps = append(n.Taps, tap)
	}
	return nil
}

// resolveTap binds one statistic's class-representative attributes to
// physical columns of a schema. Histograms are recorded under the
// class-representative labels, so the estimation algebra composes
// histograms from different relations without renaming.
func (c *compiler) resolveTap(s stats.Stat, attrs []workflow.Attr) (Tap, error) {
	if s.Kind == stats.Card {
		return Tap{Stat: s}, nil
	}
	phys, err := c.res.PhysicalAttrs(s)
	if err != nil {
		return Tap{}, err
	}
	cols := make([]int, len(phys))
	for i, a := range phys {
		cols[i] = idxOf(attrs, a)
		if cols[i] < 0 {
			// The class representative itself may be the physical column
			// (e.g. a derived attribute).
			cols[i] = idxOf(attrs, s.Attrs[i])
		}
		if cols[i] < 0 {
			return Tap{}, fmt.Errorf("attribute %s not present at observation point (schema %v)", phys[i], attrs)
		}
	}
	tap := Tap{Stat: s, Cols: cols}
	if s.Kind == stats.CMHist {
		// Count-min buckets over the attribute's full catalog domain
		// ([1, |a|] in this framework); resolving the spec here, once, keeps
		// every observation on an identical layout so merges are exact
		// counter additions.
		dom, err := c.an.Cat.Domain(phys[0])
		if err != nil {
			if dom, err = c.an.Cat.Domain(s.Attrs[0]); err != nil {
				return Tap{}, fmt.Errorf("cm-hist %v: %w", s.Key(), err)
			}
		}
		tap.Spec = stats.CMSpecFor(1, dom)
	}
	return tap, nil
}

// idxOf returns a's position within attrs, or -1.
func idxOf(attrs []workflow.Attr, a workflow.Attr) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// colsOf maps attributes to positions within a schema.
func colsOf(attrs []workflow.Attr, want []workflow.Attr) ([]int, error) {
	out := make([]int, len(want))
	for i, a := range want {
		out[i] = idxOf(attrs, a)
		if out[i] < 0 {
			return nil, fmt.Errorf("attribute %s not in schema %v", a, attrs)
		}
	}
	return out, nil
}

// attrList renders attributes comma-separated in declaration order.
func attrList(as []workflow.Attr) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}
