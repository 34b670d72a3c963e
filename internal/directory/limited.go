package directory

import (
	"fmt"
	"math/bits"

	"dsmnc/internal/flatmap"
	"dsmnc/memsys"
	"dsmnc/stats"
)

// LimitedDirectory is a Dir_iB limited-pointer directory: each entry
// records at most Pointers sharer clusters; when the pointers overflow,
// a broadcast bit is set and subsequent invalidations go to every
// cluster (NUMA-Q-class machines avoid full maps the same way, via SCI
// lists).
//
// It exists to test the paper's §3.4 claim quantitatively: R-NUMA's
// directory-resident relocation counters need to know *which* cluster is
// missing, so under pointer overflow they stop counting (the hardware no
// longer sees the requester's presence), while vxp's victim-cache
// counters are untouched. Miss classification for the *measurement*
// model stays oracle-accurate (the simulator always knows the truth);
// only the hardware-visible behaviours — invalidation targets, counter
// increments — degrade.
type LimitedDirectory struct {
	clusters int
	pointers int
	blocks   flatmap.Map[lentry]

	countersOn bool
	counters   flatmap.Counter

	invalBuf []int
	invalMsg int64
}

type lentry struct {
	// ptrMask holds the hardware sharer pointers as a cluster bitset
	// (popcount bounded by the directory's pointer limit). A bitset
	// loses the pointers' arrival order, so invalidations enumerate
	// sharers in ascending cluster order — the same order the full-map
	// directory uses.
	ptrMask uint64
	bcast   bool // pointers overflowed: invalidations broadcast
	dirty   int8

	// Oracle state for measurement-model classification only (the
	// hardware does not have it).
	sticky  uint64
	touched uint64
}

// NewLimited builds a Dir_iB directory with the given pointer count.
func NewLimited(clusters, pointers int) (*LimitedDirectory, error) {
	if clusters <= 0 || clusters > 64 {
		return nil, fmt.Errorf("directory: unsupported cluster count %d", clusters)
	}
	if pointers <= 0 || pointers >= clusters {
		return nil, fmt.Errorf("directory: pointer count %d must be in [1, clusters)", pointers)
	}
	return &LimitedDirectory{
		clusters: clusters,
		pointers: pointers,
	}, nil
}

// EnableCounters turns on the R-NUMA relocation counters (which will
// undercount under pointer overflow — the point of the experiment).
func (d *LimitedDirectory) EnableCounters() {
	d.countersOn = true
}

func (d *LimitedDirectory) entryOf(b memsys.Block) *lentry {
	e, created := d.blocks.Put(uint64(b))
	if created {
		e.dirty = NoOwner
	}
	return e
}

func (e *lentry) hasPtr(c int) bool {
	return e.ptrMask&(1<<uint(c)) != 0
}

func (e *lentry) ptrCount() int {
	return bits.OnesCount64(e.ptrMask)
}

// Access processes a fetch request (see Directory.Access). Classification
// uses the oracle sticky bits so the measured miss classes match the
// full-map runs; the hardware-visible counter increment requires the
// requester's pointer to still be present.
func (d *LimitedDirectory) Access(c int, b memsys.Block, write, countCapacity bool) AccessResult {
	e := d.entryOf(b)
	bit := uint64(1) << uint(c)

	var res AccessResult
	res.FlushOwner = NoOwner
	// Oracle classification: the *measurement* model always knows the
	// truth, so miss classes match the full-map runs.
	switch {
	case e.sticky&bit != 0:
		res.Class = stats.Capacity
	case e.touched&bit != 0:
		res.Class = stats.Coherence
	default:
		res.Class = stats.Cold
	}
	// Hardware counting: a precise pointer hit is a true capacity miss;
	// under broadcast the directory has lost per-cluster presence and
	// must count *every* miss (it cannot tell capacity from cold or
	// coherence) — R-NUMA's relocation evidence turns to noise, which is
	// exactly why the paper calls the scheme full-map-only (§3.4).
	if d.countersOn && countCapacity {
		if e.hasPtr(c) || e.bcast {
			res.CapacityCount = d.counters.Incr(counterKey(memsys.PageOfBlock(b), c))
		}
	}

	if e.dirty != NoOwner && int(e.dirty) != c {
		res.FlushOwner = int(e.dirty)
		e.dirty = NoOwner
	}
	if write {
		d.invalBuf = d.invalBuf[:0]
		if e.bcast {
			// Broadcast: every other cluster gets an invalidation.
			for oc := 0; oc < d.clusters; oc++ {
				if oc != c {
					d.invalBuf = append(d.invalBuf, oc)
				}
			}
		} else {
			for others := e.ptrMask &^ bit; others != 0; others &= others - 1 {
				d.invalBuf = append(d.invalBuf, bits.TrailingZeros64(others))
			}
			// The oracle may know of sharers the pointers forgot; the
			// hardware cannot — but overflow always sets bcast before a
			// pointer is lost, so no stale copy survives.
		}
		res.Invalidate = d.invalBuf
		d.invalMsg += int64(len(d.invalBuf))
		e.ptrMask = bit
		e.bcast = false
		e.sticky = bit
		e.dirty = int8(c)
	} else {
		if !e.hasPtr(c) && !e.bcast {
			if e.ptrCount() < d.pointers {
				e.ptrMask |= bit
			} else {
				e.bcast = true
			}
		}
		e.sticky |= bit
	}
	e.touched |= bit
	return res
}

// Upgrade grants write ownership (never counting capacity).
func (d *LimitedDirectory) Upgrade(c int, b memsys.Block) []int {
	res := d.Access(c, b, true, false)
	return res.Invalidate
}

// WriteBack records a dirty block arriving home; like R-NUMA, the
// presence record survives.
func (d *LimitedDirectory) WriteBack(c int, b memsys.Block) {
	if e := d.blocks.Get(uint64(b)); e != nil && int(e.dirty) == c {
		e.dirty = NoOwner
	}
}

// DirtyOwner returns the dirty cluster or NoOwner.
func (d *LimitedDirectory) DirtyOwner(b memsys.Block) int {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return int(e.dirty)
	}
	return NoOwner
}

// IsExclusive reports whether c owns b.
func (d *LimitedDirectory) IsExclusive(c int, b memsys.Block) bool {
	return d.DirtyOwner(b) == c
}

// SoleSharer uses the hardware view: a single pointer and no broadcast.
func (d *LimitedDirectory) SoleSharer(c int, b memsys.Block) bool {
	e := d.blocks.Get(uint64(b))
	if e == nil {
		return true
	}
	return !e.bcast && e.ptrMask == uint64(1)<<uint(c)
}

// Counter returns the hardware relocation counter for (p, c).
func (d *LimitedDirectory) Counter(p memsys.Page, c int) uint32 {
	return d.counters.Get(counterKey(p, c))
}

// ResetCounter clears the counter for (p, c).
func (d *LimitedDirectory) ResetCounter(p memsys.Page, c int) {
	d.counters.Del(counterKey(p, c))
}

// DecrementCounter undoes one capacity count (§3.4 refinement).
func (d *LimitedDirectory) DecrementCounter(p memsys.Page, c int) {
	d.counters.Dec(counterKey(p, c))
}

// Presence reports whether the hardware directory still sees cluster c as
// a possible sharer of b: either a precise pointer or broadcast mode.
// This is the conservative superset the invariant checker validates
// against actual cached copies.
func (d *LimitedDirectory) Presence(c int, b memsys.Block) bool {
	e := d.blocks.Get(uint64(b))
	if e == nil {
		return false
	}
	return e.bcast || e.hasPtr(c)
}

// PointerCount returns how many sharer pointers entry b holds (0 for an
// unmaterialized entry).
func (d *LimitedDirectory) PointerCount(b memsys.Block) int {
	if e := d.blocks.Get(uint64(b)); e != nil {
		return e.ptrCount()
	}
	return 0
}

// Broadcast reports whether entry b has fallen back to broadcast mode.
func (d *LimitedDirectory) Broadcast(b memsys.Block) bool {
	e := d.blocks.Get(uint64(b))
	return e != nil && e.bcast
}

// PointerLimit returns the configured maximum pointers per entry.
func (d *LimitedDirectory) PointerLimit() int { return d.pointers }

// InvalMessages returns cumulative invalidation messages (broadcasts
// inflate this).
func (d *LimitedDirectory) InvalMessages() int64 { return d.invalMsg }
