package explore

import (
	"math/rand"
	"testing"
)

// dominates is the O(n²) definition the frontier implements: q
// dominates p when q is no worse on both axes and strictly better on
// at least one.
func dominates(cost, stall []int64, q, p int) bool {
	return cost[q] <= cost[p] && stall[q] <= stall[p] &&
		(cost[q] < cost[p] || stall[q] < stall[p])
}

// TestDominatedByMatchesDefinition checks dominatedBy against the
// pairwise definition on random (cost, stall) sets drawn from small
// ranges, so equal costs, equal stalls and exact duplicates are common:
// a point is reported dominated exactly when some point dominates it,
// and every reported witness really dominates its point.
func TestDominatedByMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		span := int64(1 + rng.Intn(5))
		cost, stall := make([]int64, n), make([]int64, n)
		for i := range cost {
			cost[i], stall[i] = rng.Int63n(span), rng.Int63n(span)
		}
		dom := dominatedBy(n,
			func(i int) int64 { return cost[i] },
			func(i int) int64 { return stall[i] })
		for p := range cost {
			want := false
			for q := range cost {
				want = want || dominates(cost, stall, q, p)
			}
			if got := dom[p] >= 0; got != want {
				t.Fatalf("trial %d: point %d (cost %d, stall %d) dominated=%v, want %v; set cost=%v stall=%v",
					trial, p, cost[p], stall[p], got, want, cost, stall)
			}
			if w := dom[p]; w >= 0 && !dominates(cost, stall, w, p) {
				t.Fatalf("trial %d: witness %d (cost %d, stall %d) does not dominate %d (cost %d, stall %d)",
					trial, w, cost[w], stall[w], p, cost[p], stall[p])
			}
		}
	}
}
