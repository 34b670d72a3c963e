package directory

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dsmnc/memsys"
	"dsmnc/stats"
)

// stickyCount returns how many clusters have their presence bit set on b.
func stickyCount(d *Directory, b memsys.Block) int {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return bits.OnesCount64(e.sticky)
	}
	return 0
}

// mustNew builds a full-map directory or panics (test files only).
func mustNew(clusters int) *Directory {
	d, err := New(clusters)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) did not fail", n)
		}
	}
	if d, err := New(64); err != nil || d == nil {
		t.Fatalf("New(64) failed: %v", err)
	}
}

func TestColdThenCapacity(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(100)
	if r := d.Access(1, b, false, true); r.Class != stats.Cold {
		t.Fatalf("first access class = %v, want cold", r.Class)
	}
	// Re-access after a silent replacement: sticky bit still set.
	if r := d.Access(1, b, false, true); r.Class != stats.Capacity {
		t.Fatalf("re-access class = %v, want capacity", r.Class)
	}
}

func TestCoherenceAfterInvalidation(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(7)
	d.Access(1, b, false, true)
	// Cluster 2 writes: cluster 1 must be invalidated.
	r := d.Access(2, b, true, true)
	if len(r.Invalidate) != 1 || r.Invalidate[0] != 1 {
		t.Fatalf("Invalidate = %v, want [1]", r.Invalidate)
	}
	if d.DirtyOwner(b) != 2 {
		t.Fatalf("DirtyOwner = %d, want 2", d.DirtyOwner(b))
	}
	// Cluster 1 refetches: its bit was cleared by the invalidation, so
	// the miss is coherence, not capacity — and the dirty owner must
	// flush.
	r = d.Access(1, b, false, true)
	if r.Class != stats.Coherence {
		t.Fatalf("class = %v, want coherence", r.Class)
	}
	if r.FlushOwner != 2 {
		t.Fatalf("FlushOwner = %d, want 2", r.FlushOwner)
	}
	if d.DirtyOwner(b) != NoOwner {
		t.Fatal("dirty owner survived a read fetch")
	}
}

func TestWriteBackKeepsSticky(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(3)
	d.Access(4, b, true, true)
	if !d.IsExclusive(4, b) {
		t.Fatal("writer not exclusive")
	}
	d.WriteBack(4, b)
	if d.DirtyOwner(b) != NoOwner {
		t.Fatal("write-back did not clear owner")
	}
	if !d.Sticky(4, b) {
		t.Fatal("write-back cleared the sticky bit (R-NUMA keeps it)")
	}
	// The next miss from 4 is therefore capacity.
	if r := d.Access(4, b, false, true); r.Class != stats.Capacity {
		t.Fatalf("post-writeback class = %v, want capacity", r.Class)
	}
	// A write-back from a non-owner must be ignored.
	d.Access(5, b, true, true)
	d.WriteBack(4, b)
	if d.DirtyOwner(b) != 5 {
		t.Fatal("stale write-back clobbered the owner")
	}
}

func TestWriteInvalidatesAllSharers(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(9)
	for c := 0; c < 5; c++ {
		d.Access(c, b, false, true)
	}
	if n := stickyCount(d, b); n != 5 {
		t.Fatalf("stickyCount = %d, want 5", n)
	}
	r := d.Access(6, b, true, true)
	if len(r.Invalidate) != 5 {
		t.Fatalf("Invalidate = %v, want 5 clusters", r.Invalidate)
	}
	if n := stickyCount(d, b); n != 1 {
		t.Fatalf("post-write stickyCount = %d, want 1", n)
	}
	if !d.SoleSharer(6, b) {
		t.Fatal("writer not sole sharer")
	}
}

func TestUpgrade(t *testing.T) {
	d := mustNew(4)
	b := memsys.Block(11)
	d.Access(0, b, false, true)
	d.Access(1, b, false, true)
	inval := d.Upgrade(0, b)
	if len(inval) != 1 || inval[0] != 1 {
		t.Fatalf("Upgrade invalidations = %v, want [1]", inval)
	}
	if !d.IsExclusive(0, b) {
		t.Fatal("upgrade did not grant exclusivity")
	}
}

func TestSoleSharerUnknownBlock(t *testing.T) {
	d := mustNew(4)
	if !d.SoleSharer(2, 999) {
		t.Fatal("unknown block must report sole sharer")
	}
	if d.Sticky(0, 999) || d.DirtyOwner(999) != NoOwner || stickyCount(d, 999) != 0 {
		t.Fatal("unknown block has state")
	}
}

func TestCapacityCounters(t *testing.T) {
	d := mustNew(8)
	d.EnableCounters()
	b := memsys.FirstBlock(5)   // page 5
	d.Access(2, b, false, true) // cold: no count
	if d.Counter(5, 2) != 0 {
		t.Fatal("cold miss bumped counter")
	}
	for i := 1; i <= 3; i++ {
		r := d.Access(2, b, false, true)
		if r.Class != stats.Capacity {
			t.Fatalf("access %d class = %v", i, r.Class)
		}
		if r.CapacityCount != uint32(i) {
			t.Fatalf("CapacityCount = %d, want %d", r.CapacityCount, i)
		}
	}
	// Other blocks of the same page share the counter.
	d.Access(2, b+1, false, true) // cold for that block
	d.Access(2, b+1, false, true) // capacity
	if d.Counter(5, 2) != 4 {
		t.Fatalf("page counter = %d, want 4", d.Counter(5, 2))
	}
	// Per-cluster isolation.
	if d.Counter(5, 3) != 0 {
		t.Fatal("counter leaked across clusters")
	}
	if d.counters.Len() != 1 {
		t.Fatalf("counter entries = %d, want 1", d.counters.Len())
	}
	d.ResetCounter(5, 2)
	if d.Counter(5, 2) != 0 || d.counters.Len() != 0 {
		t.Fatal("ResetCounter did not clear")
	}
}

func TestCountersOffByDefault(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(1)
	d.Access(0, b, false, true)
	if r := d.Access(0, b, false, true); r.CapacityCount != 0 {
		t.Fatal("counters counted while disabled")
	}
}

// Property: sticky bits are monotone under reads (never lost except by a
// write from another cluster), and there is at most one dirty owner.
func TestDirectoryInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		d := mustNew(8)
		type key struct{ b memsys.Block }
		dirtyOf := map[memsys.Block]int{}
		for _, op := range ops {
			c := int(op % 8)
			b := memsys.Block((op >> 3) % 16)
			write := op&0x8000 != 0
			d.Access(c, b, write, true)
			if write {
				dirtyOf[b] = c
			} else if owner, ok := dirtyOf[b]; ok && owner != c {
				// A read fetch flushes a *different* dirty owner;
				// a read by the owner itself keeps its ownership.
				delete(dirtyOf, b)
			}
			// Dirty owner matches shadow.
			want, ok := dirtyOf[b]
			got := d.DirtyOwner(b)
			if ok && got != want {
				return false
			}
			if !ok && got != NoOwner {
				return false
			}
			// Requester's sticky bit is always set after access.
			if !d.Sticky(c, b) {
				return false
			}
			// After a write, exactly one sticky cluster.
			if write && stickyCount(d, b) != 1 {
				return false
			}
		}
		_ = key{}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalMessagesCounted(t *testing.T) {
	d := mustNew(8)
	b := memsys.Block(1)
	for c := 0; c < 4; c++ {
		d.Access(c, b, false, true)
	}
	d.Access(5, b, true, true) // invalidates 4 sharers
	if d.InvalMessages() != 4 {
		t.Fatalf("InvalMessages = %d, want 4", d.InvalMessages())
	}
	if d.blocks.Len() != 1 {
		t.Fatalf("blocks = %d", d.blocks.Len())
	}
}

func TestDecrementCounterFullMap(t *testing.T) {
	d := mustNew(8)
	d.EnableCounters()
	b := memsys.FirstBlock(3)
	d.Access(2, b, false, true)
	d.Access(2, b, false, true) // capacity: count 1
	d.Access(2, b, false, true) // count 2
	d.DecrementCounter(3, 2)
	if d.Counter(3, 2) != 1 {
		t.Fatalf("Counter = %d, want 1", d.Counter(3, 2))
	}
	d.DecrementCounter(3, 2)
	if d.Counter(3, 2) != 0 || d.counters.Len() != 0 {
		t.Fatal("decrement to zero did not delete the entry")
	}
	d.DecrementCounter(3, 2) // below zero: no-op
	if d.Counter(3, 2) != 0 {
		t.Fatal("negative counter")
	}
}
