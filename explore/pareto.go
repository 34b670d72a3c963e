package explore

// Exact Pareto machinery on the (stall, bit-cost) plane: the frontier
// keeps the points no other simulated point dominates. Dominance is
// strict: q dominates p when q is no worse on both axes and strictly
// better on at least one. Exact ties on both axes survive — two
// simulated points at the same (cost, stall) are both on the frontier.

import "sort"

// dominatedBy returns, for each point, the index of a dominating point
// (-1 if none). Ties are resolved deterministically: the witness is the
// first dominating point in (cost, stall, index) order.
func dominatedBy(n int, cost func(int) int64, stall func(int) int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if cost(ia) != cost(ib) {
			return cost(ia) < cost(ib)
		}
		if stall(ia) != stall(ib) {
			return stall(ia) < stall(ib)
		}
		return ia < ib
	})

	dom := make([]int, n)
	for i := range dom {
		dom[i] = -1
	}
	// bestCheaper: the minimum-stall point over all strictly cheaper
	// cost tiers seen so far.
	bestCheaper := -1
	for i := 0; i < len(order); {
		// One equal-cost tier at a time.
		j := i
		for j < len(order) && cost(order[j]) == cost(order[i]) {
			j++
		}
		tierMin := order[i] // sorted: first of the tier has minimal stall
		for _, idx := range order[i:j] {
			switch {
			case bestCheaper >= 0 && stall(bestCheaper) <= stall(idx):
				dom[idx] = bestCheaper
			case stall(tierMin) < stall(idx):
				dom[idx] = tierMin
			}
		}
		if bestCheaper < 0 || stall(tierMin) < stall(bestCheaper) {
			bestCheaper = tierMin
		}
		i = j
	}
	return dom
}
