// Package bus models the intra-cluster snooping bus: the per-processor
// caches of one SMP node and the MESIR transactions among them
// (paper §3.2). MESIR is MESI plus an R state ("remote master"): the
// cache responsible for a clean remote block, which generates a
// replacement transaction when victimized so the network victim cache
// can capture the last clean copy in the node — something plain MESI
// cannot do, because clean replacements never reach the bus.
//
// The bus knows nothing about the directory, the network cache or the
// page cache; package cluster composes them.
package bus

import (
	"fmt"

	"dsmnc/internal/cache"
	"dsmnc/memsys"
)

// Bus is the snooping bus of one cluster with its processor caches.
type Bus struct {
	caches []*cache.SetAssoc
	moesi  bool
}

// New builds a bus with n processor caches of the given configuration.
func New(n int, cfg cache.Config) (*Bus, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bus: invalid processor count %d", n)
	}
	b := &Bus{caches: make([]*cache.SetAssoc, n)}
	for i := range b.caches {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("bus: processor cache: %w", err)
		}
		b.caches[i] = c
	}
	return b, nil
}

// SetMOESI enables the O state: a Modified supplier of a read snoop
// downgrades to Owned and keeps the dirty data instead of generating a
// write-back (the protocol option of paper §3.2).
func (b *Bus) SetMOESI(on bool) { b.moesi = on }

// MOESI reports whether the O state is enabled.
func (b *Bus) MOESI() bool { return b.moesi }

// Procs returns the number of processor caches on the bus.
func (b *Bus) Procs() int { return len(b.caches) }

// Cache returns processor p's cache (testing and page flushes).
func (b *Bus) Cache(p int) *cache.SetAssoc { return b.caches[p] }

// Probe looks up blk in processor p's own cache without a bus
// transaction. The returned line may be mutated by the caller (state
// transitions on hits).
func (b *Bus) Probe(p int, blk memsys.Block) *cache.Line {
	return b.caches[p].Lookup(blk)
}

// Touch refreshes LRU recency of blk in p's cache.
func (b *Bus) Touch(p int, blk memsys.Block) { b.caches[p].Touch(blk) }

// TouchLine refreshes LRU recency of a line Probe already located in
// p's cache, without a second tag lookup.
func (b *Bus) TouchLine(p int, ln *cache.Line) { b.caches[p].TouchLine(ln) }

// SnoopResult describes what sibling caches answered to a bus request.
type SnoopResult struct {
	Supplier int         // cache that supplied the data, or -1
	State    cache.State // supplier's state at the time of the snoop
}

// SnoopRead services a read request from processor p on the bus. If a
// sibling holds the block it supplies it cache-to-cache; a Modified
// sibling is downgraded to Shared (the caller must arrange the write-back
// of the dirty data); an Exclusive sibling downgrades to Shared; an R
// sibling keeps mastership. The requester's fill state is always Shared.
func (b *Bus) SnoopRead(p int, blk memsys.Block) SnoopResult {
	for i, c := range b.caches {
		if i == p {
			continue
		}
		ln := c.Lookup(blk)
		if ln == nil {
			continue
		}
		st := ln.State
		switch st {
		case cache.Modified:
			if b.moesi {
				ln.State = cache.Owned // keep the dirty data, no write-back
			} else {
				ln.State = cache.Shared
			}
		case cache.Exclusive:
			ln.State = cache.Shared
		}
		return SnoopResult{Supplier: i, State: st}
	}
	return SnoopResult{Supplier: -1}
}

// SnoopWrite services a read-exclusive request from processor p: every
// sibling copy is invalidated. It reports the supplier (if any) and
// whether a Modified copy was consumed (its dirty data transfers with
// ownership — no write-back is needed).
func (b *Bus) SnoopWrite(p int, blk memsys.Block) SnoopResult {
	res := SnoopResult{Supplier: -1}
	for i, c := range b.caches {
		if i == p {
			continue
		}
		ln := c.Lookup(blk)
		if ln == nil {
			continue
		}
		if res.Supplier == -1 || ln.State == cache.Modified {
			res = SnoopResult{Supplier: i, State: ln.State}
		}
		c.Evict(blk)
	}
	return res
}

// InvalidateAll removes blk from every cache on the bus (system-level
// invalidation). It reports how many copies existed and whether any was
// Modified (whose data dies with the invalidation, as the new writer
// supersedes it).
func (b *Bus) InvalidateAll(blk memsys.Block) (copies int, hadDirty bool) {
	for _, c := range b.caches {
		if ln := c.Evict(blk); ln.State.Valid() {
			copies++
			if ln.State.Dirty() {
				hadDirty = true
			}
		}
	}
	return copies, hadDirty
}

// DowngradeDirty finds a Modified copy of blk and downgrades it to the
// given clean state, reporting whether one existed (remote read
// intervention). Remote-home blocks downgrade to RemoteMaster — the
// downgraded copy is the last clean copy in the node and keeps the MESIR
// replacement-mastership; local-home blocks downgrade to Shared.
func (b *Bus) DowngradeDirty(blk memsys.Block, to cache.State) bool {
	for _, c := range b.caches {
		if ln := c.Lookup(blk); ln != nil && ln.State.Dirty() {
			ln.State = to
			return true
		}
	}
	return false
}

// TransferMastership implements the R-state replacement transaction: when
// processor p victimizes an R block, a sibling holding it Shared assumes
// mastership (S→R) and no victim needs to leave the caches. It reports
// whether a sibling took over.
func (b *Bus) TransferMastership(p int, blk memsys.Block) bool {
	for i, c := range b.caches {
		if i == p {
			continue
		}
		if ln := c.Lookup(blk); ln != nil && ln.State == cache.Shared {
			ln.State = cache.RemoteMaster
			return true
		}
	}
	return false
}

// Fill inserts blk into processor p's cache, returning the victim line.
func (b *Bus) Fill(p int, blk memsys.Block, st cache.State) cache.Line {
	return b.caches[p].Fill(blk, st)
}

// HasBlock reports whether any cache on the bus holds blk.
func (b *Bus) HasBlock(blk memsys.Block) bool {
	for _, c := range b.caches {
		if c.Lookup(blk) != nil {
			return true
		}
	}
	return false
}

// HasDirty reports whether any cache holds blk Modified.
func (b *Bus) HasDirty(blk memsys.Block) bool {
	for _, c := range b.caches {
		if ln := c.Lookup(blk); ln != nil && ln.State.Dirty() {
			return true
		}
	}
	return false
}

// EvictPage removes every block of page pg from every cache, returning
// the dirty blocks that must be written back (page re-mapping flush).
func (b *Bus) EvictPage(pg memsys.Page) []memsys.Block {
	var dirty []memsys.Block
	for _, c := range b.caches {
		for _, ln := range c.EvictPage(pg) {
			if ln.State.Dirty() {
				dirty = append(dirty, ln.Block)
			}
		}
	}
	return dirty
}

// Holders returns how many caches hold blk (testing).
func (b *Bus) Holders(blk memsys.Block) int {
	n := 0
	for _, c := range b.caches {
		if c.Lookup(blk) != nil {
			n++
		}
	}
	return n
}
