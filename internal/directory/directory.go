// Package directory implements the system-level coherence directory of
// the clustered DSM: one full-map entry per block at its home node,
// tracking a sticky presence bit per cluster and the dirty owner.
//
// The presence bits follow R-NUMA's non-notifying discipline (paper §3.4):
// they are set when a cluster fetches a block, survive silent clean
// replacements AND dirty write-backs, and are cleared only by
// invalidations. A request from a cluster whose bit is still set is
// therefore a capacity miss; a request with the bit clear is a necessary
// (cold or coherence) miss. This is exactly the classification R-NUMA's
// page-relocation counters rely on.
//
// The directory also hosts the R-NUMA per-(page, cluster) capacity-miss
// counters that drive page relocation in the ncp/vbp/vpp systems. The
// paper's vxp system replaces them with counters in the network victim
// cache (package core); both styles share the threshold policies in
// package pagecache.
package directory

import (
	"fmt"

	"dsmnc/internal/flatmap"
	"dsmnc/memsys"
	"dsmnc/stats"
)

// NoOwner marks a block with no dirty cluster.
const NoOwner = -1

type entry struct {
	sticky  uint64 // presence bits, one per cluster (conservative)
	touched uint64 // clusters that have ever fetched the block
	dirty   int8   // cluster holding the modified copy, or NoOwner
}

// Directory is the full-map, block-grain system directory. The simulator
// owns one Directory for the whole machine; entries are logically
// distributed to home nodes but a single store suffices functionally.
// Entries live inline in an open-addressed table (internal/flatmap):
// materializing one on a cold miss is a slot write, not an allocation.
type Directory struct {
	clusters int
	blocks   flatmap.Map[entry]

	// R-NUMA capacity-miss counters, keyed by page<<8|cluster. Only
	// maintained when countersOn; the table grows with the set of
	// (page, cluster) pairs that actually miss — the very memory
	// overhead the paper criticizes in §3.4.
	countersOn bool
	counters   flatmap.Counter

	invalBuf []int // scratch for AccessResult.Invalidate
	invalMsg int64 // invalidation messages sent
}

// New returns a directory for the given number of clusters (max 64).
func New(clusters int) (*Directory, error) {
	if clusters <= 0 || clusters > 64 {
		return nil, fmt.Errorf("directory: unsupported cluster count %d", clusters)
	}
	return &Directory{clusters: clusters}, nil
}

// EnableCounters turns on the R-NUMA per-(page,cluster) capacity-miss
// counters.
func (d *Directory) EnableCounters() {
	d.countersOn = true
}

func (d *Directory) entryOf(b memsys.Block) *entry {
	e, created := d.blocks.Put(uint64(b))
	if created {
		e.dirty = NoOwner
	}
	return e
}

// AccessResult tells the simulator what a directory access implies.
type AccessResult struct {
	Class stats.MissClass
	// FlushOwner is the cluster that must supply (and write back) its
	// dirty copy before the request completes, or NoOwner.
	FlushOwner int
	// Invalidate lists the clusters whose copies must be invalidated
	// (write requests only). The slice is reused across calls.
	Invalidate []int
	// CapacityCount is the post-increment value of the R-NUMA counter
	// for (page of block, cluster), or 0 when counters are off or the
	// miss was necessary.
	CapacityCount uint32
}

// Access processes a fetch request for block b from cluster c, which does
// not currently hold the block. It classifies the miss, updates presence
// and ownership, and reports the coherence actions the simulator must
// apply to other clusters. countCapacity selects whether a capacity miss
// bumps the R-NUMA relocation counter: true for remote data fetches,
// false for local fetches and ownership upgrades (R-NUMA counts only
// capacity *misses to remote data*).
func (d *Directory) Access(c int, b memsys.Block, write, countCapacity bool) AccessResult {
	e := d.entryOf(b)
	bit := uint64(1) << uint(c)

	var res AccessResult
	res.FlushOwner = NoOwner
	switch {
	case e.sticky&bit != 0:
		res.Class = stats.Capacity
		if d.countersOn && countCapacity {
			res.CapacityCount = d.counters.Incr(counterKey(memsys.PageOfBlock(b), c))
		}
	case e.touched&bit != 0:
		res.Class = stats.Coherence
	default:
		res.Class = stats.Cold
	}

	if e.dirty != NoOwner && int(e.dirty) != c {
		// Remote owner supplies the data; its copy is downgraded
		// (read) or invalidated (write) and the block written back.
		res.FlushOwner = int(e.dirty)
		e.dirty = NoOwner
	}
	if write {
		d.invalBuf = d.invalBuf[:0]
		others := e.sticky &^ bit
		for oc := 0; others != 0 && oc < d.clusters; oc++ {
			if others&(1<<uint(oc)) != 0 {
				d.invalBuf = append(d.invalBuf, oc)
				others &^= 1 << uint(oc)
			}
		}
		res.Invalidate = d.invalBuf
		d.invalMsg += int64(len(d.invalBuf))
		e.sticky = bit // invalidations clear everyone else's bits
		e.dirty = int8(c)
	} else {
		e.sticky |= bit
	}
	e.touched |= bit
	return res
}

// Upgrade processes a write-ownership request from cluster c, which holds
// a clean copy of b. It returns the clusters to invalidate. The caller
// must only invoke it when c is not already the dirty owner. Upgrades
// never bump the capacity counters: the data was present in the cluster.
func (d *Directory) Upgrade(c int, b memsys.Block) []int {
	res := d.Access(c, b, true, false)
	return res.Invalidate
}

// WriteBack records that cluster c wrote the dirty copy of b back to
// home. Sticky bits are deliberately left set (R-NUMA keeps presence bits
// on after a dirty write-back so a later re-fetch classifies as capacity).
func (d *Directory) WriteBack(c int, b memsys.Block) {
	e := d.blocks.Get(uint64(b))
	if e != nil && int(e.dirty) == c {
		e.dirty = NoOwner
	}
}

// DirtyOwner returns the cluster holding the modified copy of b, or
// NoOwner.
func (d *Directory) DirtyOwner(b memsys.Block) int {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return int(e.dirty)
	}
	return NoOwner
}

// IsExclusive reports whether cluster c is the dirty owner of b, i.e. a
// write by c needs no directory transaction.
func (d *Directory) IsExclusive(c int, b memsys.Block) bool {
	return d.DirtyOwner(b) == c
}

// Sticky reports whether cluster c's presence bit for b is set.
func (d *Directory) Sticky(c int, b memsys.Block) bool {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return e.sticky&(1<<uint(c)) != 0
	}
	return false
}

// SoleSharer reports whether c is the only cluster with a presence bit on
// b. Fresh local fills use it to pick Exclusive over Shared.
func (d *Directory) SoleSharer(c int, b memsys.Block) bool {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return e.sticky == uint64(1)<<uint(c)
	}
	return true
}

// InvalMessages returns the cumulative invalidation messages sent.
func (d *Directory) InvalMessages() int64 { return d.invalMsg }

func counterKey(p memsys.Page, c int) uint64 {
	return uint64(p)<<8 | uint64(c)
}

// Counter returns the current R-NUMA capacity counter for (p, c).
func (d *Directory) Counter(p memsys.Page, c int) uint32 {
	return d.counters.Get(counterKey(p, c))
}

// ResetCounter zeroes the R-NUMA counter for (p, c); called when the page
// is relocated into (or evicted from) cluster c's page cache.
func (d *Directory) ResetCounter(p memsys.Page, c int) {
	d.counters.Del(counterKey(p, c))
}

// DecrementCounter undoes one capacity count for (p, c): the §3.4
// counter-decrement refinement applied to directory-controlled counters
// when an invalidation reaches a cluster that no longer holds the block.
func (d *Directory) DecrementCounter(p memsys.Page, c int) {
	d.counters.Dec(counterKey(p, c))
}
