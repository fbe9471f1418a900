package css

import (
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
)

// classifyObservable partitions the statistic universe into observable and
// derived-only statistics (the S_O of Section 5.1). A statistic is
// observable when the initial plan, suitably instrumented, produces the
// record-set it describes:
//
//   - every chain point of every input runs in every plan;
//   - a cooked SE is produced exactly when it appears in the initial join
//     tree;
//   - a singleton reject set T̄t for join edge f is observable when the
//     initial plan joins {t} directly over f — adding an explicit reject
//     link there captures the rejected rows (Section 4.1.2); such
//     statistics are marked in NeedsRejectLink;
//   - a two-input reject variant T̄t ⋈ r is observable under the same
//     condition when r is a single block input directly joined to t: the
//     instrumented run executes the small auxiliary join of the reject
//     stream with r, which is how the paper observes |T̄1 ⋈ T2| with a
//     plain counter in rule J4;
//   - wider reject variants are derived from those via the join rules.
func (g *generator) classifyObservable() {
	g.observable = make([]bool, len(g.stats))
	g.needsRejectLink = make([]bool, len(g.stats))
	for id, s := range g.stats {
		bc := g.res.blocks[s.Target.Block]
		switch {
		case s.Target.IsChainPoint():
			g.observable[id] = true
		case s.Target.IsReject():
			t, f := s.Target.RejectInput, s.Target.RejectEdge
			if !rejectObservable(bc, t, f) {
				continue
			}
			switch rest := s.Target.Set.Without(expr.NewSet(t)); {
			case rest.Empty():
				g.observable[id] = true
				g.needsRejectLink[id] = true
			case rest.Len() == 1 && directEdge(bc, t, rest.Lowest()) >= 0:
				g.observable[id] = true
				g.needsRejectLink[id] = true
			}
		default:
			if bc.sp.Initial[s.Target.Set] {
				g.observable[id] = true
			}
		}
	}
}

// directEdge returns the index of a join edge directly connecting inputs a
// and b, or -1.
func directEdge(bc *blockCtx, a, b int) int {
	for j, e := range bc.blk.Joins {
		if e.LeftInput == a && e.RightInput == b || e.LeftInput == b && e.RightInput == a {
			return j
		}
	}
	return -1
}

// rejectObservable reports whether the initial plan contains a join over
// edge f with one side exactly {t}: the place where a reject link can
// capture T̄t.
func rejectObservable(bc *blockCtx, t, f int) bool {
	single := expr.NewSet(t)
	for _, p := range bc.sp.InitialTree {
		if p.Edge != f {
			continue
		}
		if p.Left == single || p.Right == single {
			return true
		}
	}
	return false
}

// StatObservable reports whether a statistic — possibly one outside the
// generated universe — is observable under the initial plan, using the same
// structural rules as classifyObservable. Instrumentation uses it so
// callers may observe ad-hoc statistics (e.g. extra diagnostics) beyond the
// selector's choice.
func (r *Result) StatObservable(s stats.Stat) bool {
	if id, ok := r.ID(s); ok && r.Observable[id] {
		return true
	}
	if s.Target.Block < 0 || s.Target.Block >= len(r.blocks) {
		return false
	}
	bc := r.blocks[s.Target.Block]
	switch {
	case s.Target.IsChainPoint():
		i := s.Target.Set.Lowest()
		return i >= 0 && i < len(bc.blk.Inputs) && s.Target.Depth <= bc.chainLen(i)
	case s.Target.IsReject():
		t, f := s.Target.RejectInput, s.Target.RejectEdge
		if f < 0 || f >= len(bc.blk.Joins) || !rejectObservable(bc, t, f) {
			return false
		}
		rest := s.Target.Set.Without(expr.NewSet(t))
		return rest.Empty() || rest.Len() == 1 && directEdge(bc, t, rest.Lowest()) >= 0
	default:
		return bc.sp.Initial[s.Target.Set]
	}
}

// ObservableStats returns the observable statistics in canonical order.
func (r *Result) ObservableStats() []stats.Stat {
	var out []stats.Stat
	for id, s := range r.Stats {
		if r.Observable[id] {
			out = append(out, s)
		}
	}
	return out
}
