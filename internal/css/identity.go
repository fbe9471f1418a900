package css

import (
	"sort"

	"github.com/essential-stats/etlopt/internal/stats"
)

// applyIdentityRules implements lines 17–21 of Algorithm 1. The identity
// rules are applied one level and only over statistics the regular rules
// already generated — otherwise repeated application of I2 would blow the
// universe up exponentially (a histogram on any attribute superset can
// stand in for a histogram, but a coarser histogram is always cheaper, so
// new supersets are never worth introducing).
//
//   - I1: a target's cardinality is computable from any existing histogram
//     on the same target (sum the buckets).
//   - I2: a histogram is computable from any existing histogram on a strict
//     attribute superset of the same target (marginalize). Expressing I2 as
//     its own candidate set — rather than substituting supersets into every
//     CSS as the paper's prose does — yields identical coverage through the
//     closure (the substituted CSS is covered exactly when the superset
//     histogram makes the coarser one computable) while keeping the CSS
//     count linear in the number of statistics.
func (g *generator) applyIdentityRules() {
	// Index the generated histogram statistics by target, so superset
	// lookups touch only existing statistics.
	histsByTarget := make(map[stats.Target][]int)
	for id, s := range g.stats {
		if s.Kind == stats.Hist {
			histsByTarget[s.Target] = append(histsByTarget[s.Target], id)
		}
	}
	for _, hs := range histsByTarget {
		sort.Slice(hs, func(i, j int) bool {
			a, b := g.stats[hs[i]], g.stats[hs[j]]
			if len(a.Attrs) != len(b.Attrs) {
				return len(a.Attrs) < len(b.Attrs)
			}
			return g.keys[hs[i]].Attrs < g.keys[hs[j]].Attrs
		})
	}

	// add appends one single-input CSS per histogram in hs to id's list.
	// The universe is complete, so each CSS's input list views g.stats.
	add := func(id int, rule string, hs []int) {
		if len(hs) == 0 {
			return
		}
		old := g.css[id]
		list := carve(&g.setBuf, len(old)+len(hs), old...)
		for k, h := range hs {
			list[len(old)+k] = Set{
				CSS: stats.CSS{Rule: rule, Inputs: g.stats[h : h+1 : h+1]},
				IDs: carve(&g.idBuf, 1, h),
			}
		}
		g.css[id] = list
	}
	var supers []int
	for id, s := range g.stats {
		switch s.Kind {
		case stats.Card:
			// I1: |T| from any histogram on T.
			add(id, "I1", histsByTarget[s.Target])
		case stats.Hist:
			// I2: H^a_T from any existing H^{a∪b}_T.
			supers = supers[:0]
			for _, h := range histsByTarget[s.Target] {
				super := g.stats[h]
				if len(super.Attrs) > len(s.Attrs) && repsSubset(s.Attrs, super.Attrs) {
					supers = append(supers, h)
				}
			}
			add(id, "I2", supers)
		}
	}
}
