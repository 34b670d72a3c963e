package directory

import (
	"testing"

	"dsmnc/memsys"
	"dsmnc/stats"
)

// mustNewLimited builds a Dir_iB directory or panics (test files only).
func mustNewLimited(clusters, pointers int) *LimitedDirectory {
	d, err := NewLimited(clusters, pointers)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewLimitedValidation(t *testing.T) {
	for _, c := range []struct{ clusters, ptrs int }{
		{0, 1}, {65, 4}, {8, 0}, {8, 8}, {8, 9},
	} {
		if _, err := NewLimited(c.clusters, c.ptrs); err == nil {
			t.Errorf("NewLimited(%d,%d) did not fail", c.clusters, c.ptrs)
		}
	}
	if d, err := NewLimited(8, 4); err != nil || d == nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

func TestLimitedClassificationMatchesOracle(t *testing.T) {
	d := mustNewLimited(8, 2)
	b := memsys.Block(5)
	if r := d.Access(1, b, false, true); r.Class != stats.Cold {
		t.Fatalf("first access = %v", r.Class)
	}
	if r := d.Access(1, b, false, true); r.Class != stats.Capacity {
		t.Fatalf("re-access = %v", r.Class)
	}
	d.Access(2, b, true, true)
	if r := d.Access(1, b, false, true); r.Class != stats.Coherence {
		t.Fatalf("post-inval = %v (oracle classification must survive)", r.Class)
	}
}

func TestLimitedPointerOverflowBroadcasts(t *testing.T) {
	d := mustNewLimited(8, 2)
	b := memsys.Block(3)
	d.Access(0, b, false, true)
	d.Access(1, b, false, true)
	d.Access(2, b, false, true) // third sharer: overflow
	// A write must now broadcast to all 7 other clusters, not just the
	// 2 recorded pointers.
	r := d.Access(3, b, true, true)
	if len(r.Invalidate) != 7 {
		t.Fatalf("broadcast invalidations = %d, want 7", len(r.Invalidate))
	}
	if d.InvalMessages() != 7 {
		t.Fatalf("InvalMessages = %d", d.InvalMessages())
	}
	// The write resets to precise mode.
	r = d.Access(4, b, true, true)
	if len(r.Invalidate) != 1 || r.Invalidate[0] != 3 {
		t.Fatalf("post-reset invalidations = %v", r.Invalidate)
	}
	// Two sharers fit the two pointers: a write invalidates exactly them.
	b2 := memsys.Block(4)
	d.Access(0, b2, false, true)
	d.Access(1, b2, false, true)
	r = d.Access(5, b2, true, true)
	if len(r.Invalidate) != 2 || r.Invalidate[0] != 0 || r.Invalidate[1] != 1 {
		t.Fatalf("two-sharer invalidations = %v, want [0 1]", r.Invalidate)
	}
}

func TestLimitedCountersPreciseUnderPointers(t *testing.T) {
	d := mustNewLimited(8, 2)
	d.EnableCounters()
	b := memsys.FirstBlock(4)
	d.Access(1, b, false, true) // cold, pointer recorded
	r := d.Access(1, b, false, true)
	if r.CapacityCount != 1 {
		t.Fatalf("precise capacity count = %d", r.CapacityCount)
	}
	if d.Counter(4, 1) != 1 {
		t.Fatal("Counter lookup")
	}
	d.ResetCounter(4, 1)
	if d.Counter(4, 1) != 0 {
		t.Fatal("ResetCounter")
	}
}

func TestLimitedCountersNoisyUnderBroadcast(t *testing.T) {
	d := mustNewLimited(8, 2)
	d.EnableCounters()
	b := memsys.FirstBlock(9)
	for c := 0; c < 3; c++ { // overflow into bcast
		d.Access(c, b, false, true)
	}
	// A *cold* miss by cluster 5 now bumps the counter anyway: the
	// hardware cannot tell (relocation-evidence noise).
	r := d.Access(5, b, false, true)
	if r.Class != stats.Cold {
		t.Fatalf("class = %v", r.Class)
	}
	if r.CapacityCount != 1 {
		t.Fatalf("broadcast count = %d, want 1 (noisy)", r.CapacityCount)
	}
}

func TestLimitedDirtyOwnerAndWriteBack(t *testing.T) {
	d := mustNewLimited(8, 2)
	b := memsys.Block(7)
	d.Access(3, b, true, true)
	if !d.IsExclusive(3, b) || d.DirtyOwner(b) != 3 {
		t.Fatal("ownership")
	}
	d.WriteBack(3, b)
	if d.DirtyOwner(b) != NoOwner {
		t.Fatal("write-back")
	}
	d.WriteBack(3, b) // idempotent
	// Read fetch from a dirty owner flushes it.
	d.Access(2, b, true, true)
	r := d.Access(4, b, false, true)
	if r.FlushOwner != 2 {
		t.Fatalf("FlushOwner = %d", r.FlushOwner)
	}
}

func TestLimitedSoleSharer(t *testing.T) {
	d := mustNewLimited(8, 2)
	b := memsys.Block(11)
	if !d.SoleSharer(0, b) {
		t.Fatal("unknown block not sole")
	}
	d.Access(0, b, false, true)
	if !d.SoleSharer(0, b) || d.SoleSharer(1, b) {
		t.Fatal("single pointer")
	}
	d.Access(1, b, false, true)
	if d.SoleSharer(0, b) {
		t.Fatal("two pointers still sole")
	}
}

func TestLimitedDecrement(t *testing.T) {
	d := mustNewLimited(8, 2)
	d.EnableCounters()
	b := memsys.FirstBlock(2)
	d.Access(1, b, false, true)
	d.Access(1, b, false, true) // count 1
	d.Access(1, b, false, true) // count 2
	d.DecrementCounter(2, 1)
	if d.Counter(2, 1) != 1 {
		t.Fatal("decrement")
	}
	d.DecrementCounter(2, 1)
	if d.Counter(2, 1) != 0 {
		t.Fatal("decrement to zero")
	}
	d.DecrementCounter(2, 1) // below zero: no-op
	if d.Counter(2, 1) != 0 {
		t.Fatal("negative counter")
	}
}

func TestLimitedUpgradeNeverCounts(t *testing.T) {
	d := mustNewLimited(8, 2)
	d.EnableCounters()
	b := memsys.FirstBlock(6)
	d.Access(1, b, false, true)
	d.Upgrade(1, b)
	if d.Counter(6, 1) != 0 {
		t.Fatal("upgrade bumped the relocation counter")
	}
}
