// Package selector chooses the optimal set of statistics to observe for an
// ETL workflow, per Section 5 of the paper: given the statistic universe
// and candidate statistics sets from package css and observation costs from
// package costmodel, it finds a minimum-cost set of observable statistics
// such that the cardinality of every sub-expression is computable. Three
// solvers are provided: the paper's 0–1 LP formulation (Section 5.2) solved
// by branch and bound, a combinatorial exact branch and bound with
// closure-based feasibility, and the greedy heuristic of Section 5.3.
package selector

import (
	"fmt"
	"math"
	"sync"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
)

// cssEntry is a candidate statistics set with integer-indexed inputs.
type cssEntry struct {
	rule   string
	inputs []int
}

// Universe is the integer-indexed form of a css.Result: statistics keep
// their css IDs as indexes, CSSs become index lists, and costs are
// precomputed. It is the common substrate of all three solvers.
//
// The solvers' per-CSS state lives in flat arrays laid out once per
// universe (CSR form): CSS ci of statistic i owns slot off[i]+ci, and
// uses[useOff[j]:useOff[j+1]] lists the slots statistic j is an input of.
type Universe struct {
	Res *css.Result
	// Stats lists the statistic universe in canonical order: the css
	// result's universe (index = css ID), then any admitted sketch
	// variants.
	Stats []stats.Stat
	// Observable marks statistics the initial plan can observe.
	Observable []bool
	// Cost is the observation cost per statistic (+Inf when unobservable).
	Cost []float64
	// Mem is the memory-unit cost per statistic (the Figure 11 metric).
	Mem []int64
	// CSS holds each statistic's candidate sets.
	CSS [][]cssEntry
	// Required lists S_C as indexes.
	Required []int

	// variant maps an exact statistic's index to its admitted sketch
	// sibling's index.
	variant map[int]int
	off     []int32
	need    []int32 // need[slot]: the CSS's input count
	useOff  []int32
	uses    []useRef
	// passes recycles *passState between propagation passes: a solve runs
	// several per branch-and-bound node over the same layout.
	passes *sync.Pool
}

// useRef names one CSS a statistic is an input of: the CSS's target
// statistic and its slot.
type useRef struct{ stat, slot int32 }

// ApproxPolicy admits sketch-backed approximate statistics into the
// universe as cheap alternatives to their exact counterparts.
type ApproxPolicy struct {
	// Enable turns the approximate tier on.
	Enable bool
	// MinAccuracy is the per-statistic accuracy floor in [0, 1]: a sketch
	// variant whose ApproxAccuracy falls below the floor is excluded, so
	// the selector falls back to the exact kind for that statistic.
	MinAccuracy float64
	// Force makes each exact statistic with an admitted sketch sibling
	// unobservable, so every selection must observe the sketch (the approx
	// tier). Without it, sketches merely compete on cost (the auto tier).
	Force bool
}

// UniverseOptions configure universe construction.
type UniverseOptions struct {
	Approx ApproxPolicy
}

// ApproxAccuracy returns the expected accuracy of observing a statistic,
// 1 for exact kinds and the sketch's analytical guarantee for approximate
// ones: 1 − 1.04/√m (the HyperLogLog standard error at m registers) for
// HLLDistinct, and 1 − e/w (the count-min overcount bound at width w) for
// CMHist.
func ApproxAccuracy(s stats.Stat) float64 {
	switch s.Kind {
	case stats.HLLDistinct:
		return 1 - 1.04/math.Sqrt(float64(int64(1)<<stats.DefaultHLLP))
	case stats.CMHist:
		return 1 - math.E/float64(stats.DefaultCMWidth)
	default:
		return 1
	}
}

// NewUniverse indexes a CSS-generation result with the given coster. It
// verifies that every required statistic is derivable at all (observable or
// transitively covered), pruning candidate sets that reference underivable
// statistics.
func NewUniverse(res *css.Result, coster *costmodel.Coster) (*Universe, error) {
	return NewUniverseOpts(res, coster, UniverseOptions{})
}

// NewUniverseOpts is NewUniverse with options. When the approximate tier
// is enabled, each exact statistic with a sketch sibling (Distinct →
// HLLDistinct, single-attribute non-reject Hist → CMHist) that is
// observable under the initial plan and meets the accuracy floor enters
// the universe as an extra observable statistic, and the exact statistic
// gains a one-input candidate set (rules A1 and A2) so observing the
// sketch covers it. The shared css.Result is never mutated.
func NewUniverseOpts(res *css.Result, coster *costmodel.Coster, opts UniverseOptions) (*Universe, error) {
	nExact := len(res.Stats)
	all := res.Stats[:nExact:nExact]
	// variant maps an appended sketch statistic's index back to its exact
	// sibling's index and derivation rule.
	type variantRef struct {
		exact int
		rule  string
	}
	var variants []variantRef
	demoted := make(map[int]bool)
	if opts.Approx.Enable {
		for i := 0; i < nExact; i++ {
			v, ok := stats.ApproxVariant(all[i])
			if !ok || !res.StatObservable(v) {
				continue
			}
			if ApproxAccuracy(v) < opts.Approx.MinAccuracy {
				continue
			}
			rule := "A1"
			if v.Kind == stats.CMHist {
				rule = "A2"
			}
			all = append(all, v)
			variants = append(variants, variantRef{exact: i, rule: rule})
			if opts.Approx.Force {
				demoted[i] = true
			}
		}
	}
	u := &Universe{
		Res:        res,
		Stats:      all,
		Observable: make([]bool, len(all)),
		Cost:       make([]float64, len(all)),
		Mem:        make([]int64, len(all)),
		CSS:        make([][]cssEntry, len(all)),
		variant:    make(map[int]int, len(variants)),
	}
	nSets := 0
	for i := 0; i < nExact; i++ {
		nSets += len(res.CSS[i])
	}
	entries := make([]cssEntry, 0, nSets)
	for i, s := range all {
		// Appended sketch variants are observable by construction (checked
		// via StatObservable above); the result's Observable covers the
		// exact universe only. Forced approx demotes exact statistics whose
		// sketch sibling was admitted.
		u.Observable[i] = (i >= nExact || res.Observable[i]) && !demoted[i]
		// Costs are priced for every statistic, not just currently
		// observable ones: the Section 6.1 budget planner treats any
		// statistic as observable in a re-ordered later run.
		c, err := coster.Cost(s)
		if err != nil {
			return nil, fmt.Errorf("selector: cost of %v: %w", s.Key(), err)
		}
		u.Cost[i] = c
		m, err := coster.Memory(s)
		if err != nil {
			return nil, fmt.Errorf("selector: memory of %v: %w", s.Key(), err)
		}
		u.Mem[i] = m
		if i < nExact {
			start := len(entries)
			for _, c := range res.CSS[i] {
				entries = append(entries, cssEntry{rule: c.Rule, inputs: c.IDs})
			}
			u.CSS[i] = entries[start:len(entries):len(entries)]
		}
	}
	// The exact statistic is derivable from its sketch sibling alone.
	for vi, ref := range variants {
		u.variant[ref.exact] = nExact + vi
		u.CSS[ref.exact] = append(u.CSS[ref.exact], cssEntry{rule: ref.rule, inputs: []int{nExact + vi}})
	}
	for _, s := range res.Required {
		j, ok := res.ID(s)
		if !ok {
			return nil, fmt.Errorf("selector: required statistic %v missing from universe", s.Key())
		}
		u.Required = append(u.Required, j)
	}
	u.pruneUnderivable()
	u.layout()
	// Sanity: every required statistic must be derivable when everything
	// observable is observed.
	closed := u.Closure(u.Observable)
	for _, r := range u.Required {
		if !closed[r] {
			return nil, fmt.Errorf("selector: required statistic %v not derivable from any observable set",
				u.Stats[r].Key())
		}
	}
	return u, nil
}

// IndexOf returns a statistic's index in the universe, or false when it is
// not part of it.
func (u *Universe) IndexOf(s stats.Stat) (int, bool) {
	if ex, ok := stats.ExactVariant(s); ok {
		id, ok := u.Res.ID(ex)
		if !ok {
			return 0, false
		}
		j, ok := u.variant[id]
		return j, ok
	}
	return u.Res.ID(s)
}

// layout computes the flat per-CSS layout (off, need) and the reverse
// input index (useOff, uses) from the current candidate sets.
func (u *Universe) layout() {
	n := len(u.Stats)
	u.passes = new(sync.Pool)
	u.off = make([]int32, n+1)
	for i := range u.CSS {
		u.off[i+1] = u.off[i] + int32(len(u.CSS[i]))
	}
	u.need = make([]int32, u.off[n])
	u.useOff = make([]int32, n+1)
	for i := range u.CSS {
		for ci, c := range u.CSS[i] {
			u.need[u.off[i]+int32(ci)] = int32(len(c.inputs))
			for _, j := range c.inputs {
				u.useOff[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		u.useOff[j+1] += u.useOff[j]
	}
	// Fill in (statistic, CSS) order: the propagation loops visit an
	// input's uses in this order, which fixes the heap's push order and
	// with it the order float costs are summed in.
	u.uses = make([]useRef, u.useOff[n])
	fill := append([]int32(nil), u.useOff[:n]...)
	for i := range u.CSS {
		for ci, c := range u.CSS[i] {
			for _, j := range c.inputs {
				u.uses[fill[j]] = useRef{stat: int32(i), slot: u.off[i] + int32(ci)}
				fill[j]++
			}
		}
	}
}

// passState is the scratch of one propagation pass (Closure or
// deriveCosts), laid out per slot and per statistic.
type passState struct {
	remaining []int32   // per slot: inputs not yet available
	acc       []float64 // per slot: aggregated cost of the available inputs
	done      []bool    // per statistic
	heap      costHeap
	queue     []int
}

// pass returns a reset passState; the caller hands it back with
// u.passes.Put when the pass ends.
func (u *Universe) pass() *passState {
	ps, _ := u.passes.Get().(*passState)
	if ps == nil {
		ps = &passState{
			remaining: make([]int32, len(u.need)),
			acc:       make([]float64, len(u.need)),
			done:      make([]bool, len(u.Stats)),
		}
	}
	copy(ps.remaining, u.need)
	clear(ps.acc)
	clear(ps.done)
	ps.heap = ps.heap[:0]
	ps.queue = ps.queue[:0]
	return ps
}

// usesOf lists the CSSs statistic j is an input of.
func (u *Universe) usesOf(j int) []useRef { return u.uses[u.useOff[j]:u.useOff[j+1]] }

// pruneUnderivable removes candidate sets whose inputs can never be
// computed (not observable and, transitively, not derivable), shrinking the
// models the solvers build.
func (u *Universe) pruneUnderivable() {
	possible := make([]bool, len(u.Stats))
	copy(possible, u.Observable)
	for changed := true; changed; {
		changed = false
		for i := range u.Stats {
			if possible[i] {
				continue
			}
			for _, c := range u.CSS[i] {
				all := true
				for _, j := range c.inputs {
					if !possible[j] {
						all = false
						break
					}
				}
				if all {
					possible[i] = true
					changed = true
					break
				}
			}
		}
	}
	for i := range u.CSS {
		kept := u.CSS[i][:0]
		for _, c := range u.CSS[i] {
			ok := true
			for _, j := range c.inputs {
				if !possible[j] {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, c)
			}
		}
		u.CSS[i] = kept
	}
}

// Closure computes the set of computable statistics given the observed
// ones: the least fixpoint of "observed, or some CSS fully computable"
// (property 1 of Section 5.1). It runs in time linear in total CSS size.
func (u *Universe) Closure(observed []bool) []bool {
	computable := make([]bool, len(u.Stats))
	ps := u.pass()
	defer u.passes.Put(ps)
	// remaining[slot] counts a CSS's inputs not yet computable.
	remaining, queue := ps.remaining, ps.queue
	for i := range u.Stats {
		if observed[i] {
			computable[i] = true
			queue = append(queue, i)
		}
	}
	// Zero-input CSSs (none are generated, but be safe).
	for i := range u.Stats {
		if computable[i] {
			continue
		}
		for _, r := range remaining[u.off[i]:u.off[i+1]] {
			if r == 0 {
				computable[i] = true
				queue = append(queue, i)
				break
			}
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ref := range u.usesOf(i) {
			if computable[ref.stat] {
				continue
			}
			remaining[ref.slot]--
			if remaining[ref.slot] == 0 {
				computable[ref.stat] = true
				queue = append(queue, int(ref.stat))
			}
		}
	}
	ps.queue = queue
	return computable
}

// Covered reports whether every required statistic is computable under the
// observation set.
func (u *Universe) Covered(observed []bool) bool {
	closed := u.Closure(observed)
	for _, r := range u.Required {
		if !closed[r] {
			return false
		}
	}
	return true
}

// ObservedCost sums the cost of an observation set.
func (u *Universe) ObservedCost(observed []bool) float64 {
	var total float64
	for i, on := range observed {
		if on {
			total += u.Cost[i]
		}
	}
	return total
}

// ObservedMemory sums the memory units of an observation set (the Figure 11
// metric).
func (u *Universe) ObservedMemory(observed []bool) int64 {
	var total int64
	for i, on := range observed {
		if on {
			total += u.Mem[i]
		}
	}
	return total
}

// StatsOf converts an observation bitset into the statistic list.
func (u *Universe) StatsOf(observed []bool) []stats.Stat {
	var out []stats.Stat
	for i, on := range observed {
		if on {
			out = append(out, u.Stats[i])
		}
	}
	return out
}
