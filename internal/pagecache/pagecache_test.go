package pagecache

import (
	"testing"
	"testing/quick"

	"dsmnc/memsys"
)

// mustNew builds a page cache or panics (test files only).
func mustNew(frames int, pol *Policy) *PageCache {
	pc, err := New(frames, pol)
	if err != nil {
		panic(err)
	}
	return pc
}

func newPC(frames int) *PageCache { return mustNew(frames, NewFixedPolicy(32)) }

func blockOf(p memsys.Page, i int) memsys.Block {
	return memsys.FirstBlock(p) + memsys.Block(i)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, NewFixedPolicy(1)); err == nil {
		t.Error("New accepted zero frames")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("New accepted a nil policy")
	}
}

func TestLookupInstallInvalidate(t *testing.T) {
	pc := newPC(2)
	b := blockOf(5, 3)
	if st := pc.Lookup(b); st.Mapped || st.Valid || st.Dirty {
		t.Fatalf("empty PC state = %+v", st)
	}
	// Install into an unmapped page is a no-op.
	pc.Install(b, false)
	if st := pc.Lookup(b); st.Mapped {
		t.Fatal("install mapped a page")
	}
	pc.Relocate(5)
	if st := pc.Lookup(b); !st.Mapped || st.Valid {
		t.Fatalf("mapped page state = %+v (blocks start invalid)", st)
	}
	pc.Install(b, false)
	if st := pc.Lookup(b); !st.Valid || st.Dirty {
		t.Fatalf("installed state = %+v", st)
	}
	pc.Install(b, true)
	if st := pc.Lookup(b); !st.Dirty {
		t.Fatal("dirty install not recorded")
	}
	// A clean reinstall clears dirty (fresh copy fetched from home).
	pc.Install(b, false)
	if st := pc.Lookup(b); st.Dirty {
		t.Fatal("clean reinstall left dirty bit")
	}
	if !pc.Deposit(b, true) {
		t.Fatal("dirty Deposit refused mapped block")
	}
	if dirty := pc.Invalidate(b); !dirty {
		t.Fatal("Invalidate lost dirty status")
	}
	if st := pc.Lookup(b); st.Valid {
		t.Fatal("invalidated block still valid")
	}
	if pc.Invalidate(blockOf(99, 0)) {
		t.Fatal("Invalidate of unmapped block reported dirty")
	}
	if pc.Deposit(blockOf(99, 0), true) {
		t.Fatal("dirty Deposit accepted unmapped block")
	}
}

func TestRelocateIdempotent(t *testing.T) {
	pc := newPC(2)
	pc.Relocate(1)
	pc.Install(blockOf(1, 0), true)
	ev, raised := pc.Relocate(1)
	if ev != nil || raised {
		t.Fatal("re-relocating a mapped page did something")
	}
	if st := pc.Lookup(blockOf(1, 0)); !st.Valid {
		t.Fatal("re-relocation cleared the frame")
	}
}

func TestLRMReplacement(t *testing.T) {
	pc := newPC(2)
	pc.Relocate(1)
	pc.Relocate(2)
	// Page 1 misses again (install refreshes recency); page 2 only hits.
	pc.Install(blockOf(2, 0), false)
	pc.Install(blockOf(1, 0), false)
	pc.RecordHit(blockOf(2, 0)) // hits must NOT refresh LRM recency
	pc.RecordHit(blockOf(2, 0))
	ev, _ := pc.Relocate(3)
	if ev == nil || ev.Page != 2 {
		t.Fatalf("evicted %+v, want page 2 (least recently missed)", ev)
	}
	if ev.Hits != 2 {
		t.Fatalf("evicted hits = %d, want 2", ev.Hits)
	}
	if pc.Mapped() != 2 {
		t.Fatalf("Mapped = %d, want 2", pc.Mapped())
	}
}

func TestEvictionFlushesDirtyBlocks(t *testing.T) {
	pc := newPC(1)
	pc.Relocate(4)
	pc.Install(blockOf(4, 1), true)
	pc.Deposit(blockOf(4, 7), true)
	pc.Install(blockOf(4, 9), false)
	ev, _ := pc.Relocate(5)
	if ev == nil || ev.Page != 4 {
		t.Fatalf("evicted %+v", ev)
	}
	if len(ev.Dirty) != 2 {
		t.Fatalf("dirty flush = %v, want blocks 1 and 7 of page 4", ev.Dirty)
	}
	want := map[memsys.Block]bool{blockOf(4, 1): true, blockOf(4, 7): true}
	for _, b := range ev.Dirty {
		if !want[b] {
			t.Fatalf("unexpected dirty block %d", b)
		}
	}
}

func TestUnmap(t *testing.T) {
	pc := newPC(2)
	pc.Relocate(3)
	pc.Deposit(blockOf(3, 2), true)
	ev := pc.Unmap(3)
	if ev == nil || ev.Page != 3 || len(ev.Dirty) != 1 {
		t.Fatalf("Unmap = %+v", ev)
	}
	if pc.Unmap(3) != nil {
		t.Fatal("double unmap returned a record")
	}
	if pc.Mapped() != 0 {
		t.Fatal("Unmap left the page mapped")
	}
}

func TestFixedPolicyNeverRaises(t *testing.T) {
	pc := mustNew(1, NewFixedPolicy(32))
	evictions := 0
	for p := memsys.Page(0); p < 100; p++ {
		ev, raised := pc.Relocate(p)
		if raised {
			t.Fatal("fixed policy raised the threshold")
		}
		if ev != nil {
			evictions++
		}
	}
	if pc.Policy().Threshold() != 32 {
		t.Fatal("fixed threshold drifted")
	}
	if pc.Policy().Adaptive() {
		t.Fatal("fixed policy claims adaptive")
	}
	if evictions != 99 {
		t.Fatalf("%d frame reuses, want 99", evictions)
	}
}

func TestAdaptivePolicyRaisesOnThrashing(t *testing.T) {
	// 4 frames, window = 8 reuses. Relocate pages that never hit: every
	// reuse contributes -breakEven, so after one window the threshold
	// must rise by the step.
	pol := NewAdaptivePolicy(32)
	pc := mustNew(4, pol)
	page := memsys.Page(0)
	raises := 0
	for i := 0; i < 4+8; i++ { // fill 4, then 8 thrashing reuses
		if _, raised := pc.Relocate(page); raised {
			raises++
		}
		page++
	}
	if pol.Threshold() != 32+8 {
		t.Fatalf("threshold = %d, want 40 after one thrashing window", pol.Threshold())
	}
	if raises != 1 {
		t.Fatalf("%d raises reported, want 1", raises)
	}
	// Keep thrashing: threshold keeps climbing window by window.
	for i := 0; i < 16; i++ {
		pc.Relocate(page)
		page++
	}
	if pol.Threshold() != 32+8*3 {
		t.Fatalf("threshold = %d, want 56 after three windows", pol.Threshold())
	}
}

func TestAdaptivePolicyQuietWhenPagesEarnKeep(t *testing.T) {
	pol := NewAdaptivePolicy(32)
	pc := mustNew(2, pol)
	page := memsys.Page(0)
	pc.Relocate(page)
	page++
	pc.Relocate(page)
	page++
	for i := 0; i < 40; i++ {
		// Before each reuse, give the victim more hits than break-even.
		victimPage := page - 2
		for h := 0; h < DefaultBreakEven+5; h++ {
			pc.RecordHit(blockOf(victimPage, 0))
		}
		if _, raised := pc.Relocate(page); raised {
			t.Fatal("policy raised without thrashing")
		}
		page++
	}
	if pol.Threshold() != 32 {
		t.Fatalf("threshold = %d, want 32 (no thrashing)", pol.Threshold())
	}
}

func TestAdaptiveRaiseResetsHitCounters(t *testing.T) {
	pol := &Policy{adaptive: true, threshold: 32, step: 8, breakEven: DefaultBreakEven, windowFactor: 1} // window = frames = 2
	pc := mustNew(2, pol)
	pc.Relocate(1)
	pc.Relocate(2)
	pc.RecordHit(blockOf(2, 0)) // some hits on the surviving page
	pc.RecordHit(blockOf(2, 0))
	// Two zero-hit reuses trigger a raise (window=2).
	pc.Relocate(3)
	_, raised := pc.Relocate(4)
	if !raised || pol.Threshold() != 32+8 {
		t.Fatalf("raised=%v threshold=%d, want a raise to 40", raised, pol.Threshold())
	}
	// After the raise all hit counters are reset: evicting what remains
	// must report zero hits.
	ev := pc.Unmap(2)
	if ev != nil && ev.Hits != 0 {
		t.Fatalf("hits = %d after reset, want 0", ev.Hits)
	}
}

func TestPolicyTunedParameters(t *testing.T) {
	pol := &Policy{adaptive: true, threshold: 64, step: 16, breakEven: 3, windowFactor: 1}
	pc := mustNew(1, pol)
	if pol.Threshold() != 64 {
		t.Fatal("initial threshold")
	}
	pc.Relocate(1)
	pc.Relocate(2) // one reuse = one window; 0 hits < breakEven 3
	if pol.Threshold() != 80 {
		t.Fatalf("threshold = %d, want 80", pol.Threshold())
	}
}

// Property: the page cache never maps more pages than frames, dirty
// implies valid, and every evicted dirty list matches what was written.
func TestPageCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		pc := mustNew(3, NewFixedPolicy(32))
		shadowDirty := map[memsys.Block]bool{}
		mapped := map[memsys.Page]bool{}
		for _, op := range ops {
			p := memsys.Page(op % 8)
			blk := blockOf(p, int(op>>3)%64)
			switch op % 5 {
			case 0:
				ev, _ := pc.Relocate(p)
				if ev != nil {
					delete(mapped, ev.Page)
					for _, b := range ev.Dirty {
						if !shadowDirty[b] {
							return false // flushed a block never dirtied
						}
						delete(shadowDirty, b)
					}
					// Any remaining shadow-dirty blocks of the page were
					// not flushed: error.
					for b := range shadowDirty {
						if memsys.PageOfBlock(b) == ev.Page {
							return false
						}
					}
				}
				mapped[p] = true
			case 1:
				if mapped[p] {
					pc.Install(blk, false)
					delete(shadowDirty, blk)
				} else {
					pc.Install(blk, false)
				}
			case 2:
				if pc.Deposit(blk, true) {
					shadowDirty[blk] = true
				}
			case 3:
				if pc.Invalidate(blk) != shadowDirty[blk] {
					return false
				}
				delete(shadowDirty, blk)
			case 4:
				pc.RecordHit(blk)
			}
			if pc.Mapped() > 3 {
				return false
			}
			// Dirty implies valid for a sampled block.
			st := pc.Lookup(blk)
			if st.Dirty && !st.Valid {
				return false
			}
			if st.Dirty != shadowDirty[blk] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestClean(t *testing.T) {
	pc := newPC(2)
	if pc.Clean(blockOf(1, 0)) {
		t.Fatal("cleaned an unmapped block")
	}
	pc.Relocate(1)
	pc.Install(blockOf(1, 0), false)
	if pc.Clean(blockOf(1, 0)) {
		t.Fatal("cleaned an already-clean block")
	}
	pc.Deposit(blockOf(1, 0), true)
	if !pc.Clean(blockOf(1, 0)) {
		t.Fatal("Clean missed the dirty block")
	}
	st := pc.Lookup(blockOf(1, 0))
	if !st.Valid || st.Dirty {
		t.Fatalf("post-clean state = %+v", st)
	}
}
