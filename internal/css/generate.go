package css

import (
	"slices"
	"sort"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Generate runs Algorithm 1 of the paper over every optimizable block of
// the analyzed workflow: starting from the required cardinalities of all
// SEs, it applies the operator rules transitively to build the statistic
// universe and each statistic's candidate statistics sets, then applies the
// identity rules one level without introducing new statistics, and finally
// classifies observability against the initial plan.
//
// Generation works on dense statistic IDs: each distinct statistic is
// interned once, when a rule first mentions it, and every later mention is
// a hash lookup. The result renumbers the universe into canonical order.
func Generate(an *workflow.Analysis, opt Options) (*Result, error) {
	res := &Result{Analysis: an, opt: opt}
	for i := range an.Blocks {
		bc, err := newBlockCtx(an, i)
		if err != nil {
			return nil, err
		}
		res.blocks = append(res.blocks, bc)
		res.Spaces = append(res.Spaces, bc.sp)
	}

	g := &generator{res: res, an: an, opt: opt, index: newStatIndex()}
	// Seed the worklist with S_C: the cardinality of every SE of every
	// block (lines 4–5 of Algorithm 1).
	for _, bc := range res.blocks {
		for _, se := range bc.sp.SEs {
			s := stats.NewCard(stats.BlockSE(bc.idx, se))
			res.Required = append(res.Required, s)
			g.push(s)
		}
	}
	// Worklist loop (lines 6–16).
	for len(g.work) > 0 {
		g.cur = g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		if err := g.expand(g.stats[g.cur]); err != nil {
			return nil, err
		}
		g.css[g.cur] = carve(&g.setBuf, len(g.pending), g.pending...)
		g.pending = g.pending[:0]
	}
	// Identity rules, one level, no new statistics (lines 17–21).
	g.applyIdentityRules()
	g.dedupeCSS()
	// Observability classification of the whole universe.
	g.classifyObservable()
	g.finish()
	return res, nil
}

// generator is Algorithm 1's state. Statistics are numbered in the order
// they are first mentioned; finish renumbers them canonically.
type generator struct {
	res  *Result
	an   *workflow.Analysis
	opt  Options
	work []int
	// cur is the statistic being expanded: every rule derives it.
	cur int

	index statIndex
	stats []stats.Stat
	// keys[id] is the statistic's formatted identity, built once: the
	// canonical order compares its attribute string.
	keys            []stats.Key
	css             [][]Set
	observable      []bool
	needsRejectLink []bool
	// pending collects the CSSs of the statistic being expanded.
	pending []Set
	// setBuf, idBuf, statBuf and attrBuf are chunks the CSS lists, their ID
	// and input lists and the interned statistics' attribute lists are
	// carved from.
	setBuf  []Set
	idBuf   []int
	statBuf []stats.Stat
	attrBuf []workflow.Attr
	// scratch holds the attributes of rule inputs until addJoinCSS has
	// interned them; splitL and splitR are splitAttrs' scratch space.
	scratch        []workflow.Attr
	splitL, splitR []workflow.Attr
}

// push adds a statistic to the universe and worklist if unseen, and returns
// its ID.
func (g *generator) push(s stats.Stat) int {
	h := statHash(s)
	if id, ok := g.index.find(g.stats, s, h); ok {
		return id
	}
	id := len(g.stats)
	g.index.add(h)
	s.Attrs = carve(&g.attrBuf, len(s.Attrs), s.Attrs...)
	g.stats = append(g.stats, s)
	g.keys = append(g.keys, s.Key())
	g.css = append(g.css, nil)
	g.work = append(g.work, id)
	return id
}

// carve returns a slice of length n carved from the chunk *buf, holding a
// copy of init. A full chunk is replaced by one twice its size (up to 64Ki
// elements). The slice's capacity ends at its length, so appending to it
// never writes into a neighbour.
func carve[T any](buf *[]T, n int, init ...T) []T {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]T, 0, max(n, min(2*cap(*buf), 1<<16), 64))
	}
	start := len(*buf)
	*buf = append(*buf, make([]T, n)...)
	out := (*buf)[start : start+n : start+n]
	copy(out, init)
	return out
}

// hist is stats.NewHist for a rule input and distinct stats.NewDistinct:
// the attributes are canonicalized in scratch space, and push copies them
// only when it interns a statistic not seen before.
func (g *generator) hist(t stats.Target, attrs ...workflow.Attr) stats.Stat {
	return stats.Stat{Kind: stats.Hist, Target: t, Attrs: g.canon(attrs)}
}

func (g *generator) distinct(t stats.Target, attrs ...workflow.Attr) stats.Stat {
	return stats.Stat{Kind: stats.Distinct, Target: t, Attrs: g.canon(attrs)}
}

// canon sorts and de-duplicates a copy of attrs in scratch space, as
// stats' constructors do on a fresh slice.
func (g *generator) canon(attrs []workflow.Attr) []workflow.Attr {
	start := len(g.scratch)
	g.scratch = append(g.scratch, attrs...)
	out := workflow.SortAttrs(g.scratch[start:])
	n := 0
	for i, a := range out {
		if i == 0 || out[n-1] != a {
			out[n] = a
			n++
		}
	}
	g.scratch = g.scratch[:start+n]
	return out[:n:n]
}

// addCSS records a candidate statistics set for the statistic being
// expanded and pushes its inputs onto the worklist.
func (g *generator) addCSS(rule string, inputs ...stats.Stat) {
	g.addJoinCSS(rule, workflow.Attr{}, inputs...)
}

// addJoinCSS is addCSS carrying the join-attribute class the estimation
// layer needs to evaluate join rules.
func (g *generator) addJoinCSS(rule string, join workflow.Attr, inputs ...stats.Stat) {
	// A CSS referencing its own target would be circular.
	target := g.stats[g.cur]
	for _, in := range inputs {
		if sameStat(in, target) {
			return
		}
	}
	c := Set{
		CSS: stats.CSS{Rule: rule, Inputs: carve(&g.statBuf, len(inputs)), Join: join},
		IDs: carve(&g.idBuf, len(inputs)),
	}
	for i, in := range inputs {
		c.IDs[i] = g.push(in)
		c.Inputs[i] = g.stats[c.IDs[i]]
	}
	g.pending = append(g.pending, c)
	g.scratch = g.scratch[:0]
}

// expand generates the CSSs of one statistic by dispatching on its target
// shape.
func (g *generator) expand(s stats.Stat) error {
	bc := g.res.blocks[s.Target.Block]
	switch {
	case s.Kind == stats.Distinct:
		// A distinct count is the bucket count of the matching histogram
		// (used by rule G1's input and generally derivable).
		g.addCSS("D1", stats.Stat{Kind: stats.Hist, Target: s.Target, Attrs: s.Attrs})
		return nil
	case s.Target.IsChainPoint():
		return g.expandChainPoint(bc, s)
	case s.Target.IsReject():
		return g.expandReject(bc, s)
	case s.Target.Set.Len() >= 2:
		return g.expandJoinSE(bc, s)
	default:
		return g.expandSingleton(bc, s)
	}
}

// expandJoinSE applies the join rules J1–J5 (and the FK metadata shortcut)
// to a statistic over a multi-input SE.
func (g *generator) expandJoinSE(bc *blockCtx, s stats.Stat) error {
	se := s.Target.Set
	for _, p := range bc.sp.Plans[se] {
		la, _ := bc.sp.JoinAttrsOf(p)
		class := bc.sp.ClassOf(la)
		switch s.Kind {
		case stats.Card:
			// J1: |L ⋈ R| from the join-column distributions.
			g.addJoinCSS("J1", class,
				g.hist(stats.BlockSE(bc.idx, p.Left), class),
				g.hist(stats.BlockSE(bc.idx, p.Right), class))
			// FK shortcut: a look-up join keeps the fact side's
			// cardinality.
			if g.opt.FKShortcut {
				if fact, ok := g.fkFactSide(bc, p); ok {
					g.addCSS("FK", stats.NewCard(stats.BlockSE(bc.idx, fact)))
				}
			}
		case stats.Hist:
			if inL, inR, ok := g.splitAttrs(bc, p, class, s.Attrs); ok {
				rule := "J2"
				if len(s.Attrs) == 1 && s.Attrs[0] == class {
					rule = "J3"
				}
				g.addJoinCSS(rule, class,
					g.hist(stats.BlockSE(bc.idx, p.Left), inL...),
					g.hist(stats.BlockSE(bc.idx, p.Right), inR...))
			}
		}
	}
	if g.opt.UnionDivision {
		g.expandUnionDivision(bc, s)
	}
	return nil
}

// splitAttrs partitions a histogram's attribute classes across the two
// sides of a plan and adds the join class to both, producing the inputs of
// the generalized J2/J3 rule. ok is false when an attribute lives on
// neither side.
//
// The lists reuse the generator's scratch space, so they are only valid
// until the next call; the histogram constructors copy them.
func (g *generator) splitAttrs(bc *blockCtx, p expr.Plan, class workflow.Attr, attrs []workflow.Attr) (inL, inR []workflow.Attr, ok bool) {
	inL = append(g.splitL[:0], class)
	inR = append(g.splitR[:0], class)
	for _, a := range attrs {
		if a == class {
			continue // carried by the join attribute itself
		}
		if _, okL := bc.sp.MemberIn(p.Left, a); okL {
			inL = append(inL, a)
			continue
		}
		if _, okR := bc.sp.MemberIn(p.Right, a); okR {
			inR = append(inR, a)
			continue
		}
		return nil, nil, false
	}
	g.splitL, g.splitR = inL, inR
	return inL, inR, true
}

// fkFactSide reports whether plan p is a look-up join: its dimension side
// is the bare FK-target input with no filtering operators. It returns the
// fact side when so.
func (g *generator) fkFactSide(bc *blockCtx, p expr.Plan) (expr.Set, bool) {
	e := bc.blk.Joins[p.Edge]
	if !e.ForeignKey {
		return 0, false
	}
	dim := expr.NewSet(e.RightInput)
	var fact expr.Set
	switch {
	case p.Right == dim:
		fact = p.Left
	case p.Left == dim:
		fact = p.Right
	default:
		return 0, false
	}
	for _, op := range bc.blk.Inputs[e.RightInput].Ops {
		if op.Kind == workflow.KindSelect {
			return 0, false // a filtered dimension breaks the look-up property
		}
	}
	return fact, true
}

// expandUnionDivision applies rules J4/J5: for an SE e whose statistics are
// wanted, and an observable super-SE o = e ∪ {k} of the initial plan where
// k joins some t ∈ e, the statistic on e is computable from o's
// distribution on the (t,k) join attribute, k's distribution, and the
// statistic over the reject variant of e (t replaced by its rows rejected
// by the (t,k) predicate).
func (g *generator) expandUnionDivision(bc *blockCtx, s stats.Stat) {
	// Union–division is generated for cardinalities and single-attribute
	// distributions (the paper's J4/J5 shapes). Joint-distribution variants
	// would square the candidate universe on wide joins for statistics the
	// selection never favors.
	if s.Kind == stats.Hist && len(s.Attrs) > 1 {
		return
	}
	se := s.Target.Set
	for k := 0; k < bc.blk.NumInputs(); k++ {
		if se.Has(k) {
			continue
		}
		o := se.Add(k)
		if !bc.sp.Initial[o] {
			continue
		}
		for f, e := range bc.blk.Joins {
			var t int
			switch {
			case e.LeftInput == k && se.Has(e.RightInput):
				t = e.RightInput
			case e.RightInput == k && se.Has(e.LeftInput):
				t = e.LeftInput
			default:
				continue
			}
			class := bc.sp.ClassOf(e.LeftAttr)
			switch s.Kind {
			case stats.Card:
				// J4: |e| = |H^a_o / H^a_k| + |reject variant of e|.
				g.addJoinCSS("J4", class,
					g.hist(stats.BlockSE(bc.idx, o), class),
					g.hist(stats.BlockSE(bc.idx, expr.NewSet(k)), class),
					stats.NewCard(stats.BlockRejectSE(bc.idx, se, t, f)))
			case stats.Hist:
				// J5 additionally carries the wanted attributes through the
				// division; they must all live inside e.
				if !bc.seHasAttrs(se, s.Attrs) {
					continue
				}
				oAttrs := append([]workflow.Attr{class}, s.Attrs...)
				g.addJoinCSS("J5", class,
					g.hist(stats.BlockSE(bc.idx, o), oAttrs...),
					g.hist(stats.BlockSE(bc.idx, expr.NewSet(k)), class),
					g.hist(stats.BlockRejectSE(bc.idx, se, t, f), s.Attrs...))
			}
		}
	}
}

// expandReject generates CSSs for statistics over reject variants: the
// reject variant of a multi-input SE joins the reject rows of input t with
// the rest of the SE, so the join rules apply with the t side replaced by
// its reject singleton. The reject singleton itself can be derived from the
// base input's joint distribution and the partner's join-column
// distribution (the rows whose join value finds no partner).
func (g *generator) expandReject(bc *blockCtx, s stats.Stat) error {
	se := s.Target.Set
	t := s.Target.RejectInput
	f := s.Target.RejectEdge
	if se.Len() == 1 {
		// Singleton reject T̄t: derivable from H_t on (join attr ∪ attrs)
		// plus the partner's join-column distribution (rule R1, the
		// anti-join complement of J1/J2).
		e := bc.blk.Joins[f]
		k := e.LeftInput
		if k == t {
			k = e.RightInput
		}
		class := bc.sp.ClassOf(e.LeftAttr)
		switch s.Kind {
		case stats.Card:
			g.addJoinCSS("R1", class,
				g.hist(stats.BlockSE(bc.idx, expr.NewSet(t)), class),
				g.hist(stats.BlockSE(bc.idx, expr.NewSet(k)), class))
		case stats.Hist:
			tAttrs := append([]workflow.Attr{class}, s.Attrs...)
			g.addJoinCSS("R1", class,
				g.hist(stats.BlockSE(bc.idx, expr.NewSet(t)), tAttrs...),
				g.hist(stats.BlockSE(bc.idx, expr.NewSet(k)), class))
		}
		return nil
	}
	// Multi-input reject variant: join the reject singleton with the rest
	// of the SE over the unique tree edge connecting t to the rest.
	rest := se.Without(expr.NewSet(t))
	if !bc.sp.Connected(rest) {
		return nil
	}
	gEdge := -1
	for j, e := range bc.blk.Joins {
		if e.LeftInput == t && rest.Has(e.RightInput) || e.RightInput == t && rest.Has(e.LeftInput) {
			gEdge = j
			break
		}
	}
	if gEdge < 0 {
		return nil
	}
	class := bc.sp.ClassOf(bc.blk.Joins[gEdge].LeftAttr)
	switch s.Kind {
	case stats.Card:
		g.addJoinCSS("J1", class,
			g.hist(stats.BlockRejectSE(bc.idx, expr.NewSet(t), t, f), class),
			g.hist(stats.BlockSE(bc.idx, rest), class))
	case stats.Hist:
		// Split wanted attributes between the reject singleton and the
		// rest, as in the generalized J2.
		tAttrs := []workflow.Attr{class}
		restAttrs := []workflow.Attr{class}
		for _, a := range s.Attrs {
			if a == class {
				continue
			}
			if _, ok := bc.sp.MemberIn(expr.NewSet(t), a); ok {
				tAttrs = append(tAttrs, a)
				continue
			}
			if _, ok := bc.sp.MemberIn(rest, a); ok {
				restAttrs = append(restAttrs, a)
				continue
			}
			return nil
		}
		g.addJoinCSS("J2", class,
			g.hist(stats.BlockRejectSE(bc.idx, expr.NewSet(t), t, f), tAttrs...),
			g.hist(stats.BlockSE(bc.idx, rest), restAttrs...))
	}
	return nil
}

// expandSingleton handles statistics over a cooked single input: when the
// input has pushed-down operators, the chain rules (S/P/U) relate it to the
// previous chain point; when it is an upstream block's output, the
// cross-block boundary rules (G/U/pass-through) relate it to the upstream
// block's full SE.
func (g *generator) expandSingleton(bc *blockCtx, s stats.Stat) error {
	i := s.Target.Set.Lowest()
	n := bc.chainLen(i)
	if n > 0 {
		g.chainRule(bc, s, i, n)
		return nil
	}
	if g.opt.CrossBlock {
		g.crossBlockRule(bc, s, i)
	}
	return nil
}

// expandChainPoint handles statistics at intermediate chain points.
func (g *generator) expandChainPoint(bc *blockCtx, s stats.Stat) error {
	i := s.Target.Set.Lowest()
	d := s.Target.Depth
	if d > 0 {
		g.chainRule(bc, s, i, d)
		return nil
	}
	if g.opt.CrossBlock {
		g.crossBlockRule(bc, s, i)
	}
	return nil
}

// chainTarget canonicalizes a chain-point reference: depth equal to the
// chain length is the cooked SE; depth 0 with no upstream block and no ops
// is also the cooked SE.
func (g *generator) chainTarget(bc *blockCtx, i, d int) stats.Target {
	if d >= bc.chainLen(i) {
		return stats.BlockSE(bc.idx, expr.NewSet(i))
	}
	return stats.Target{Block: bc.idx, Set: expr.NewSet(i), Depth: d, RejectInput: -1, RejectEdge: -1}
}

// chainRule relates the statistic at chain point d of input i to the point
// d-1 through operator ops[d-1], per Tables 2 and 5 of the paper.
func (g *generator) chainRule(bc *blockCtx, s stats.Stat, i, d int) {
	op := bc.blk.Inputs[i].Ops[d-1]
	prev := g.chainTarget(bc, i, d-1)
	switch op.Kind {
	case workflow.KindSelect:
		predClass := bc.sp.ClassOf(op.Pred.Attr)
		switch s.Kind {
		case stats.Card:
			// S1: |σ_a(T)| from H^a_T.
			g.addCSS("S1", g.hist(prev, predClass))
		case stats.Hist:
			// S2: H^b of the selection from H^{a∪b} of the input (when b
			// already contains a this is just H^b).
			need := append([]workflow.Attr(nil), s.Attrs...)
			if !attrInReps(need, predClass) {
				need = append(need, predClass)
			}
			if _, ok := bc.membersAt(i, d-1, need); !ok {
				return
			}
			g.addCSS("S2", g.hist(prev, need...))
		}
	case workflow.KindProject:
		switch s.Kind {
		case stats.Card:
			// P1: projection preserves cardinality.
			g.addCSS("P1", stats.NewCard(prev))
		case stats.Hist:
			// P2: distributions over retained columns are unchanged.
			if _, ok := bc.membersAt(i, d-1, s.Attrs); !ok {
				return
			}
			g.addCSS("P2", g.hist(prev, s.Attrs...))
		}
	case workflow.KindTransform:
		outClass := bc.sp.ClassOf(op.Transform.Out)
		switch s.Kind {
		case stats.Card:
			// U1: transforms preserve cardinality.
			g.addCSS("U1", stats.NewCard(prev))
		case stats.Hist:
			// U2: distributions not involving the derived attribute are
			// unchanged; distributions over it are black-box.
			if attrInReps(s.Attrs, outClass) {
				return
			}
			if _, ok := bc.membersAt(i, d-1, s.Attrs); !ok {
				return
			}
			g.addCSS("U2", g.hist(prev, s.Attrs...))
		}
	}
}

// crossBlockRule relates a block input fed by an upstream block to the
// upstream block's full SE through the boundary operator.
func (g *generator) crossBlockRule(bc *blockCtx, s stats.Stat, i int) {
	in := bc.blk.Inputs[i]
	if in.FromBlock < 0 {
		return // base relation: only direct observation
	}
	up := g.res.blocks[in.FromBlock]
	upFull := stats.BlockSE(up.idx, up.sp.Full())
	// Only single-terminator blocks have a clean boundary derivation; a
	// longer pinned pipeline is treated as opaque.
	if len(up.blk.TopOps) > 1 {
		return
	}
	var term *workflow.Node
	if len(up.blk.TopOps) == 1 {
		term = up.blk.TopOps[0]
	}
	// Translate attribute classes from this block's space to the upstream
	// block's. A downstream class representative may not exist upstream;
	// find a physical member in the boundary schema first.
	translate := func(reps []workflow.Attr) ([]workflow.Attr, bool) {
		out := make([]workflow.Attr, 0, len(reps))
		for _, rep := range reps {
			phys, ok := bc.memberAt(i, 0, rep)
			if !ok {
				return nil, false
			}
			upRep := up.sp.ClassOf(phys)
			if _, ok := up.sp.MemberIn(up.sp.Full(), upRep); !ok {
				return nil, false
			}
			out = append(out, upRep)
		}
		return out, true
	}
	switch {
	case term == nil || term.Kind == workflow.KindMaterialize:
		// Pass-through: the boundary record-set is the upstream SE.
		switch s.Kind {
		case stats.Card:
			g.addCSS("B0", stats.NewCard(upFull))
		case stats.Hist:
			if attrs, ok := translate(s.Attrs); ok {
				g.addCSS("B0", g.hist(upFull, attrs...))
			}
		}
	case term.Kind == workflow.KindGroupBy:
		keys, ok := translate(classReps(bc.sp, term.Cols))
		if !ok {
			return
		}
		switch s.Kind {
		case stats.Card:
			// G1: |G(T,a)| = |a_T|.
			g.addCSS("G1", g.distinct(upFull, keys...))
		case stats.Hist:
			// G2: distributions over (subsets of) the grouping keys come
			// from the upstream key distribution, one count per group.
			attrs, ok := translate(s.Attrs)
			if !ok || !repsSubset(attrs, keys) {
				return
			}
			g.addCSS("G2", g.hist(upFull, keys...))
		}
	case term.Kind == workflow.KindTransform:
		outClass := bc.sp.ClassOf(term.Transform.Out)
		switch s.Kind {
		case stats.Card:
			g.addCSS("U1", stats.NewCard(upFull))
		case stats.Hist:
			if attrInReps(s.Attrs, outClass) {
				return
			}
			if attrs, ok := translate(s.Attrs); ok {
				g.addCSS("U2", g.hist(upFull, attrs...))
			}
		}
	default:
		// Aggregate UDFs are black boxes: no derivation (trivial CSS only).
	}
}

func attrInReps(reps []workflow.Attr, a workflow.Attr) bool {
	for _, r := range reps {
		if r == a {
			return true
		}
	}
	return false
}

func repsSubset(sub, super []workflow.Attr) bool {
	for _, a := range sub {
		if !attrInReps(super, a) {
			return false
		}
	}
	return true
}

func classReps(sp *expr.Space, attrs []workflow.Attr) []workflow.Attr {
	out := make([]workflow.Attr, 0, len(attrs))
	for _, a := range attrs {
		out = append(out, sp.ClassOf(a))
	}
	return workflow.SortAttrs(dedupe(out))
}

func dedupe(attrs []workflow.Attr) []workflow.Attr {
	seen := make(map[workflow.Attr]bool, len(attrs))
	out := attrs[:0]
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// dedupeCSS removes duplicate candidate sets (same rule inputs produced by
// different plans) per target, keeping the first.
func (g *generator) dedupeCSS() {
	for id, list := range g.css {
		n := 0
		for i := range list {
			dup := false
			for k := range list[:n] {
				if slices.Equal(list[k].IDs, list[i].IDs) {
					dup = true
					break
				}
			}
			if !dup {
				list[n] = list[i]
				n++
			}
		}
		g.css[id] = list[:n]
	}
}

// finish renumbers the universe into canonical order (statKeyLess) and
// publishes it, with every CSS's ID list, observability marks and the
// lookup index, on the result.
func (g *generator) finish() {
	n := len(g.stats)
	order := make([]int, n) // order[new] = old
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return statKeyLess(g.keys[order[i]], g.keys[order[j]]) })
	rank := make([]int, n) // rank[old] = new
	for id, old := range order {
		rank[old] = id
	}
	r := g.res
	r.Stats = make([]stats.Stat, n)
	r.CSS = make([][]Set, n)
	r.Observable = make([]bool, n)
	r.NeedsRejectLink = make([]bool, n)
	r.index = newStatIndex()
	for id, old := range order {
		r.Stats[id] = g.stats[old]
		r.Observable[id] = g.observable[old]
		r.NeedsRejectLink[id] = g.needsRejectLink[old]
		r.index.add(statHash(g.stats[old]))
		for _, c := range g.css[old] {
			for i, in := range c.IDs {
				c.IDs[i] = rank[in]
			}
		}
		r.CSS[id] = g.css[old]
	}
}
