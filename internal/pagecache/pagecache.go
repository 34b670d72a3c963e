// Package pagecache implements the main-memory page cache for remote data
// (Simple COMA [21] / R-NUMA [3], paper §3.3): remote pages replicated
// under local aliases at page granularity, with coherence kept at block
// granularity. It also implements the relocation-threshold policies,
// including the paper's adaptive policy (§6.2) that raises a node's
// threshold whenever the page cache thrashes.
//
// The package models mechanism only — which pages are mapped, which
// blocks of them are valid or dirty, and which page to replace (least
// recently missed). What *triggers* a relocation lives elsewhere: the
// R-NUMA capacity-miss counters in package directory, or the per-set
// victimization counters of the network victim cache in package core.
package pagecache

import (
	"fmt"
	"math/bits"

	"dsmnc/internal/flatmap"
	"dsmnc/memsys"
)

// frame is one page-cache frame.
type frame struct {
	page     memsys.Page
	valid    uint64 // per-block valid bits
	dirty    uint64 // per-block dirty bits (implies valid)
	lastMiss uint64 // recency of the last installing miss (LRM)
	hits     uint16 // saturating per-frame hit counter (adaptive policy)
}

const hitSaturation = 0xffff

// BlockState is the page cache's view of one block of a mapped page.
type BlockState struct {
	Mapped bool // the block's page has a frame
	Valid  bool // the block holds data
	Dirty  bool // the frame holds the only up-to-date copy in the cluster
}

// Evicted describes a page flushed out of the cache on replacement.
type Evicted struct {
	Page  memsys.Page
	Dirty []memsys.Block // blocks that must be written back to home
	Hits  int            // hits the frame collected during its lifetime
}

// PageCache is one cluster's page cache. Frames live inline in an
// open-addressed table keyed by page number: the per-reference state
// probes (Lookup/Invalidate on the remote-access path) are a single
// linear-probe scan with no pointer chase or runtime map assist. Frame
// pointers obtained from the table are used immediately and never
// retained across a Relocate/Unmap (which may move entries).
type PageCache struct {
	frames   int
	byPage   flatmap.Map[frame]
	clock    uint64 // advances on installing misses (LRM recency)
	policy   *Policy
	dirtyBuf []memsys.Block
}

// New builds a page cache with the given number of page frames and
// relocation-threshold policy. frames must be positive; policy must not
// be nil (use NewFixedPolicy for the trivial one).
func New(frames int, policy *Policy) (*PageCache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("pagecache: invalid frame count %d", frames)
	}
	if policy == nil {
		return nil, fmt.Errorf("pagecache: nil policy")
	}
	policy.bindFrames(frames)
	return &PageCache{
		frames: frames,
		policy: policy,
	}, nil
}

// Frames returns the capacity in pages.
func (pc *PageCache) Frames() int { return pc.frames }

// Mapped returns how many frames are in use.
func (pc *PageCache) Mapped() int { return pc.byPage.Len() }

// Policy returns the relocation-threshold policy.
func (pc *PageCache) Policy() *Policy { return pc.policy }

// Lookup returns the state of block b in the cache.
func (pc *PageCache) Lookup(b memsys.Block) BlockState {
	f := pc.byPage.Get(uint64(memsys.PageOfBlock(b)))
	if f == nil {
		return BlockState{}
	}
	bit := uint64(1) << uint(memsys.BlockInPage(b))
	return BlockState{
		Mapped: true,
		Valid:  f.valid&bit != 0,
		Dirty:  f.dirty&bit != 0,
	}
}

// RecordHit notes that a processor miss was satisfied by block b's frame,
// feeding the adaptive policy's per-frame hit counters. LRM recency is
// deliberately NOT updated: replacement is least-recently-*missed*, so a
// page that hits forever but stops missing ages out.
func (pc *PageCache) RecordHit(b memsys.Block) {
	if f := pc.byPage.Get(uint64(memsys.PageOfBlock(b))); f != nil && f.hits < hitSaturation {
		f.hits++
	}
}

// Install records that a remote fetch deposited block b (dirty if the
// fetch was for a write that will complete in the frame) into its mapped
// page, and refreshes the page's LRM recency. Installing into an
// unmapped page is a no-op.
func (pc *PageCache) Install(b memsys.Block, dirty bool) {
	f := pc.byPage.Get(uint64(memsys.PageOfBlock(b)))
	if f == nil {
		return
	}
	bit := uint64(1) << uint(memsys.BlockInPage(b))
	f.valid |= bit
	if dirty {
		f.dirty |= bit
	} else {
		f.dirty &^= bit
	}
	pc.clock++
	f.lastMiss = pc.clock
}

// Deposit stores a victimized block into its frame without refreshing the
// page's LRM recency (a victimization is not a miss). Dirty deposits keep
// the cluster's only copy local; clean deposits let the frame keep
// serving a block the NC just dropped. It reports whether the page was
// mapped.
func (pc *PageCache) Deposit(b memsys.Block, dirty bool) bool {
	f := pc.byPage.Get(uint64(memsys.PageOfBlock(b)))
	if f == nil {
		return false
	}
	bit := uint64(1) << uint(memsys.BlockInPage(b))
	f.valid |= bit
	if dirty {
		f.dirty |= bit
	}
	return true
}

// Invalidate drops block b (system-level invalidation), reporting whether
// the frame copy was dirty.
func (pc *PageCache) Invalidate(b memsys.Block) bool {
	f := pc.byPage.Get(uint64(memsys.PageOfBlock(b)))
	if f == nil {
		return false
	}
	bit := uint64(1) << uint(memsys.BlockInPage(b))
	dirty := f.dirty&bit != 0
	f.valid &^= bit
	f.dirty &^= bit
	return dirty
}

// Clean marks a dirty copy of block b clean (remote read intervention:
// the data went home but the frame keeps serving reads). It reports
// whether a dirty copy was found.
func (pc *PageCache) Clean(b memsys.Block) bool {
	f := pc.byPage.Get(uint64(memsys.PageOfBlock(b)))
	if f == nil {
		return false
	}
	bit := uint64(1) << uint(memsys.BlockInPage(b))
	if f.dirty&bit == 0 {
		return false
	}
	f.dirty &^= bit
	return true
}

// Bits returns page p's per-block valid and dirty masks, and whether the
// page is mapped at all. The invariant checker uses it to verify that
// dirty bits never outrun valid bits.
func (pc *PageCache) Bits(p memsys.Page) (valid, dirty uint64, ok bool) {
	f := pc.byPage.Get(uint64(p))
	if f == nil {
		return 0, 0, false
	}
	return f.valid, f.dirty, true
}

// IsMapped reports whether page p has a frame.
func (pc *PageCache) IsMapped(p memsys.Page) bool {
	return pc.byPage.Get(uint64(p)) != nil
}

// Relocate maps page p into the cache, evicting the least-recently-missed
// page if all frames are busy. It returns the evicted page (if any) and
// whether the adaptive policy raised the threshold as a result of the
// reuse. Relocating an already-mapped page is a no-op.
func (pc *PageCache) Relocate(p memsys.Page) (ev *Evicted, raised bool) {
	if pc.byPage.Get(uint64(p)) != nil {
		return nil, false
	}
	if pc.byPage.Len() >= pc.frames {
		ev = pc.flush(pc.lrmVictim())
		raised = pc.policy.frameReused(ev.Hits, pc)
	}
	pc.clock++
	f, _ := pc.byPage.Put(uint64(p))
	*f = frame{page: p, lastMiss: pc.clock}
	return ev, raised
}

// Unmap removes page p without replacement pressure (used when a
// replicated page's copies are flushed), returning its flush record.
func (pc *PageCache) Unmap(p memsys.Page) *Evicted {
	f := pc.byPage.Get(uint64(p))
	if f == nil {
		return nil
	}
	return pc.flush(f)
}

// lrmVictim picks the frame whose last installing miss is oldest. LRM
// recencies are unique (the clock advances on every install), so the
// minimum is unambiguous regardless of table order.
func (pc *PageCache) lrmVictim() *frame {
	var victim *frame
	pc.byPage.Range(func(_ uint64, f *frame) bool {
		if victim == nil || f.lastMiss < victim.lastMiss {
			victim = f
		}
		return true
	})
	return victim
}

// flush extracts a frame's dirty blocks and unmaps the page. The frame's
// fields are read before the Del, whose compaction may overwrite them.
func (pc *PageCache) flush(f *frame) *Evicted {
	page, dirtyMask, hits := f.page, f.dirty, f.hits
	pc.dirtyBuf = pc.dirtyBuf[:0]
	first := memsys.FirstBlock(page)
	for d := dirtyMask; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		pc.dirtyBuf = append(pc.dirtyBuf, first+memsys.Block(i))
	}
	ev := &Evicted{Page: page, Hits: int(hits)}
	if len(pc.dirtyBuf) > 0 {
		ev.Dirty = append([]memsys.Block(nil), pc.dirtyBuf...)
	}
	pc.byPage.Del(uint64(page))
	return ev
}

// resetAllHitCounters supports the adaptive policy: when the threshold is
// raised, all per-frame hit counters restart (paper §6.2).
func (pc *PageCache) resetAllHitCounters() {
	pc.byPage.Range(func(_ uint64, f *frame) bool {
		f.hits = 0
		return true
	})
}
