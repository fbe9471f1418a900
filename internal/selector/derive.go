package selector

import "math"

// deriveMode selects how the cost of an AND-node (a CSS needing all its
// inputs) is aggregated from its inputs.
type deriveMode int

const (
	// deriveSum prices a CSS at the sum of its input derivation costs. It
	// over-counts statistics shared between branches, so it is an upper
	// bound on the cheapest derivation — suitable for the greedy heuristic.
	deriveSum deriveMode = iota
	// deriveMax prices a CSS at the maximum input derivation cost. Because
	// any real derivation pays at least its most expensive leaf, this is a
	// valid lower bound — suitable for branch-and-bound pruning.
	deriveMax
)

// deriveCosts computes, for every statistic, the cheapest derivation cost
// under the given leaf pricing: free[i] statistics cost 0 (already
// observed/computable), banned[i] statistics cannot be observed, all other
// observable statistics cost u.Cost[i], and unobservable statistics can
// only be reached through a CSS. The computation is Knuth's generalization
// of Dijkstra's algorithm to monotone AND/OR graphs, which handles the
// cyclic derivations produced by union–division correctly.
// obs overrides the observability mask when non-nil (the Section 6.1
// budget planner widens observability for re-ordered later runs).
func (u *Universe) deriveCosts(obs, free, banned []bool, mode deriveMode) []float64 {
	if obs == nil {
		obs = u.Observable
	}
	n := len(u.Stats)
	dist := make([]float64, n)
	ps := u.pass()
	defer u.passes.Put(ps)
	// remaining[slot]: inputs of a CSS not yet finalized; acc[slot]:
	// aggregated cost of its finalized inputs.
	remaining, acc, done, pq := ps.remaining, ps.acc, ps.done, &ps.heap
	for i := 0; i < n; i++ {
		switch {
		case free != nil && free[i]:
			dist[i] = 0
		case obs[i] && (banned == nil || !banned[i]):
			dist[i] = u.Cost[i]
		default:
			dist[i] = math.Inf(1)
		}
		if !math.IsInf(dist[i], 1) {
			pq.push(heapItem{idx: i, cost: dist[i]})
		}
	}
	for len(*pq) > 0 {
		it := pq.pop()
		i := it.idx
		if done[i] || it.cost > dist[i] {
			continue
		}
		done[i] = true
		for _, ref := range u.usesOf(i) {
			if done[ref.stat] {
				continue
			}
			switch mode {
			case deriveSum:
				acc[ref.slot] += dist[i]
			case deriveMax:
				if dist[i] > acc[ref.slot] {
					acc[ref.slot] = dist[i]
				}
			}
			remaining[ref.slot]--
			if remaining[ref.slot] == 0 && acc[ref.slot] < dist[ref.stat] {
				dist[ref.stat] = acc[ref.slot]
				pq.push(heapItem{idx: int(ref.stat), cost: dist[ref.stat]})
			}
		}
	}
	return dist
}

// cheapestDerivation returns, for statistic target, a concrete derivation
// under deriveSum pricing: the set of not-yet-free observable statistics it
// observes. It re-runs the cost pass and then walks the winning choices.
// ok is false when the target is underivable under the pricing.
func (u *Universe) cheapestDerivation(target int, obs, free, banned []bool) (leaves []int, cost float64, ok bool) {
	if obs == nil {
		obs = u.Observable
	}
	dist := u.deriveCosts(obs, free, banned, deriveSum)
	return u.walkDerivation(target, dist, obs, free, banned)
}

// walkDerivation extracts the observed-leaf set of the cheapest derivation
// from a precomputed deriveSum cost vector, so callers can share one cost
// pass across many targets.
func (u *Universe) walkDerivation(target int, dist []float64, obs, free, banned []bool) (leaves []int, cost float64, ok bool) {
	if obs == nil {
		obs = u.Observable
	}
	if math.IsInf(dist[target], 1) {
		return nil, 0, false
	}
	// mark[i]: 1 once visited, 2 when i is an observed leaf.
	const seen, leaf = 1, 2
	mark := make([]uint8, len(u.Stats))
	var walk func(i int)
	walk = func(i int) {
		if mark[i] != 0 {
			return
		}
		mark[i] = seen
		if free != nil && free[i] {
			return
		}
		// Prefer direct observation when it is the winning price.
		if obs[i] && (banned == nil || !banned[i]) && u.Cost[i] <= dist[i]+1e-12 {
			mark[i] = leaf
			return
		}
		// Otherwise find a CSS achieving the winning price.
		for _, c := range u.CSS[i] {
			var sum float64
			feasible := true
			for _, j := range c.inputs {
				if math.IsInf(dist[j], 1) {
					feasible = false
					break
				}
				sum += dist[j]
			}
			if feasible && sum <= dist[i]+1e-9 {
				for _, j := range c.inputs {
					walk(j)
				}
				return
			}
		}
		// Fall back to direct observation even at a worse price (can only
		// happen through floating-point ties).
		if obs[i] && (banned == nil || !banned[i]) {
			mark[i] = leaf
		}
	}
	walk(target)
	for i, m := range mark {
		if m == leaf {
			leaves = append(leaves, i)
		}
	}
	return leaves, dist[target], true
}

type heapItem struct {
	idx  int
	cost float64
}

// costHeap is a binary min-heap on cost. Its sift-up and sift-down are
// container/heap's, step for step, so items pop in exactly the order
// container/heap would pop them (ties included), and the float sums built
// in pop order stay bit-identical.
type costHeap []heapItem

func (h *costHeap) push(it heapItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].cost < q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *costHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].cost < q[j1].cost {
			j = j2 // right child
		}
		if !(q[j].cost < q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
