// Package cluster implements the node controller of one DSM cluster: the
// pseudo-processor (PP) of Figure 1 that glues the processor caches on
// the snooping bus, the network cache, the page cache and the system
// directory together, and the full per-reference MESIR algorithm.
//
// The cluster talks to the rest of the machine only through the
// HomeService interface, which package sim implements on top of the
// directory; this keeps every inter-cluster action (fetch, upgrade,
// invalidation, dirty flush) explicit and countable.
package cluster

import (
	"fmt"

	"dsmnc/internal/bus"
	"dsmnc/internal/cache"
	"dsmnc/internal/core"
	"dsmnc/internal/pagecache"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/telemetry"
)

// CounterMode selects what drives page relocation.
type CounterMode uint8

// Counter modes.
const (
	// CountersNone disables page relocation (no page cache, or an NC-only
	// system).
	CountersNone CounterMode = iota
	// CountersDirectory uses R-NUMA's per-(page,cluster) capacity-miss
	// counters maintained by the directory (ncp/vbp/vpp).
	CountersDirectory
	// CountersNCSet uses the per-set victimization counters integrated
	// into the network victim cache (vxp, paper §3.4).
	CountersNCSet
)

// FetchReply is what the home directory answers to a remote fetch.
type FetchReply struct {
	Class stats.MissClass
	// CapacityCount is the post-increment R-NUMA relocation counter for
	// (page, cluster); zero unless directory counters are enabled and
	// the miss was capacity.
	CapacityCount uint32
	// RemoteDirty means the data had to be retrieved from a remote
	// cluster's dirty copy: even a local-home fetch then pays a network
	// round trip.
	RemoteDirty bool
}

// HomeService is the cluster's view of the rest of the machine: the home
// directories and the network. Package sim implements it.
type HomeService interface {
	// Fetch performs a block fetch at the home directory, applying all
	// system-level coherence actions (invalidations, dirty flushes) to
	// the other clusters.
	Fetch(cluster int, b memsys.Block, write bool) FetchReply
	// Upgrade acquires system-level write ownership for a block the
	// cluster already holds clean.
	Upgrade(cluster int, b memsys.Block)
	// WriteBack delivers the dirty copy of b to home memory.
	WriteBack(cluster int, b memsys.Block)
	// IsExclusive reports whether the cluster already holds system-level
	// ownership of b (a write needs no directory transaction).
	IsExclusive(cluster int, b memsys.Block) bool
	// SoleSharer reports whether the cluster is the only one with a
	// presence bit on b (local fills may enter Exclusive).
	SoleSharer(cluster int, b memsys.Block) bool
	// HomeOf returns the home cluster of page p (already placed).
	HomeOf(p memsys.Page) int
	// ResetRelocationCounter clears the directory relocation counter of
	// (p, cluster) after a relocation or page eviction.
	ResetRelocationCounter(p memsys.Page, cluster int)
}

// Config assembles one cluster.
type Config struct {
	ID       int
	Procs    int
	L1       cache.Config
	NC       core.NC              // use core.NoNC{} for none
	PC       *pagecache.PageCache // nil for none
	Counters CounterMode
	Home     HomeService
	// MOESI enables the dirty-shared O state (paper §3.2's rejected
	// option, kept for ablation): intra-cluster reads of Modified
	// lines no longer generate write-backs.
	MOESI bool
	// DecrementCounters enables the §3.4 refinement: a late
	// invalidation of a block the cluster no longer holds decrements
	// the relocation counter that its earlier victimization bumped.
	DecrementCounters bool
	// Trace, when non-nil, receives a structured event for every
	// coherence action the cluster takes (fills, victimizations,
	// invalidations, relocations, write-backs). The simulation is
	// bit-identical with and without it.
	Trace *telemetry.Tracer
}

// Cluster is one SMP node of the DSM.
type Cluster struct {
	id    int
	bus   *bus.Bus
	nc    core.NC
	scnc  core.SetCounterNC // non-nil when Counters == CountersNCSet
	pc    *pagecache.PageCache
	mode  CounterMode
	home  HomeService
	moesi bool
	decr  bool
	tr    *telemetry.Tracer

	// C is the cluster's event account.
	C stats.Counters
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	b, err := bus.New(cfg.Procs, cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	cl := &Cluster{
		id:    cfg.ID,
		bus:   b,
		nc:    cfg.NC,
		pc:    cfg.PC,
		mode:  cfg.Counters,
		home:  cfg.Home,
		moesi: cfg.MOESI,
		decr:  cfg.DecrementCounters,
		tr:    cfg.Trace,
	}
	cl.bus.SetMOESI(cfg.MOESI)
	if cl.nc == nil {
		cl.nc = core.NoNC{}
	}
	if cfg.Counters == CountersNCSet {
		sc, ok := cl.nc.(core.SetCounterNC)
		if !ok {
			return nil, fmt.Errorf("cluster: CountersNCSet requires a set-counter NC (vxp victim cache)")
		}
		cl.scnc = sc
	}
	if cfg.Counters != CountersNone && cl.pc == nil {
		return nil, fmt.Errorf("cluster: relocation counters configured without a page cache")
	}
	return cl, nil
}

// emit forwards one coherence event to the attached tracer, if any.
func (cl *Cluster) emit(kind telemetry.EventKind, addr uint64, arg uint8) {
	if cl.tr != nil {
		cl.tr.Emit(kind, cl.id, addr, arg)
	}
}

// ID returns the cluster id.
func (cl *Cluster) ID() int { return cl.id }

// Bus exposes the snooping bus (testing).
func (cl *Cluster) Bus() *bus.Bus { return cl.bus }

// NC exposes the network cache (testing).
func (cl *Cluster) NC() core.NC { return cl.nc }

// PC exposes the page cache (testing), possibly nil.
func (cl *Cluster) PC() *pagecache.PageCache { return cl.pc }

// NCOccupancy reports the network cache's used and total frames.
func (cl *Cluster) NCOccupancy() (used, frames int) { return cl.nc.Occupancy() }

// PCOccupancy reports the page cache's mapped and total frames (0, 0
// without a page cache).
func (cl *Cluster) PCOccupancy() (used, frames int) {
	if cl.pc == nil {
		return 0, 0
	}
	return cl.pc.Mapped(), cl.pc.Frames()
}

// Access processes one memory reference by local processor p (0-based
// within the cluster) to addr; home is the block's home cluster.
func (cl *Cluster) Access(p int, addr memsys.Addr, write bool, home int) {
	cl.C.Refs.Inc(write)
	b := memsys.BlockOf(addr)
	local := home == cl.id

	// Processor cache hit path.
	if ln := cl.bus.Probe(p, b); ln != nil {
		cl.bus.TouchLine(p, ln)
		cl.C.L1Hits.Inc(write)
		if !write {
			return
		}
		switch ln.State {
		case cache.Modified:
			// Nothing to do.
		case cache.Owned:
			// O→M: invalidate the sibling Shared copies; the cluster
			// already holds system-level ownership.
			cl.bus.SnoopWrite(p, b)
			ln.State = cache.Modified
		case cache.Exclusive:
			// Local clean exclusive: take ownership. The directory is
			// consulted so system state stays consistent, but this is
			// a local-home transaction (E blocks are local-home only).
			cl.home.Upgrade(cl.id, b)
			ln.State = cache.Modified
		default: // Shared or RemoteMaster: bus upgrade.
			cl.writeUpgrade(p, b, local)
			ln.State = cache.Modified
		}
		return
	}

	// Bus transaction: snoop the sibling caches.
	if write {
		if res := cl.bus.SnoopWrite(p, b); res.Supplier >= 0 {
			if local {
				cl.C.LocalC2C.Inc(true)
			} else {
				cl.C.C2C.Inc(true)
			}
			// Sibling copies are gone; NC/PC copies are superseded by
			// the new Modified line (dirty data transfers with
			// ownership, no write-back).
			cl.nc.Invalidate(b)
			if cl.pc != nil {
				cl.pc.Invalidate(b)
			}
			if !local {
				cl.ncAnchorDirty(b)
			}
			cl.acquireOwnership(b, local)
			cl.fill(p, b, cache.Modified, false)
			return
		}
	} else {
		if res := cl.bus.SnoopRead(p, b); res.Supplier >= 0 {
			if res.State == cache.Modified && !cl.moesi {
				// MESI: the downgraded line's data must go somewhere;
				// under MOESI the supplier keeps it in state O.
				cl.captureDowngrade(b, local)
			}
			if local {
				cl.C.LocalC2C.Inc(false)
			} else {
				cl.C.C2C.Inc(false)
			}
			cl.fill(p, b, cache.Shared, false)
			return
		}
	}

	// Network cache snoop (remote blocks only: caching local blocks in
	// the NC is pointless, paper §3.2).
	if !local {
		if pr := cl.nc.Probe(b, write); pr.Hit {
			cl.C.NCHits.Inc(write)
			if write {
				if cl.pc != nil {
					cl.pc.Invalidate(b)
				}
				cl.acquireOwnership(b, false)
				cl.fill(p, b, cache.Modified, false)
				return
			}
			st := cache.Shared
			if pr.Freed {
				// Victim cache: the block moved out of the NC; the
				// requester resumes mastership (and dirtiness).
				st = cache.RemoteMaster
				if pr.Dirty {
					st = cache.Modified
				}
			}
			cl.fill(p, b, st, false)
			return
		}
	}

	// Page cache lookup.
	if !local && cl.pc != nil {
		if pst := cl.pc.Lookup(b); pst.Mapped && pst.Valid {
			cl.C.PCHits.Inc(write)
			cl.pc.RecordHit(b)
			if write {
				cl.pc.Invalidate(b) // the Modified line supersedes the frame copy
				cl.ncAnchorDirty(b)
				cl.acquireOwnership(b, false)
				cl.fill(p, b, cache.Modified, false)
				return
			}
			// The frame keeps the copy; the line joins as Shared so its
			// own replacement is silent (the data is still backed
			// locally).
			cl.fill(p, b, cache.Shared, false)
			return
		}
	}

	if local {
		cl.localFetch(p, b, write)
		return
	}
	cl.remoteFetch(p, b, write)
}

// writeUpgrade performs the bus upgrade transaction for a write hit on a
// Shared or RemoteMaster line.
func (cl *Cluster) writeUpgrade(p int, b memsys.Block, local bool) {
	cl.bus.SnoopWrite(p, b) // invalidate sibling copies
	cl.nc.Invalidate(b)
	if cl.pc != nil {
		cl.pc.Invalidate(b)
	}
	if !local {
		cl.ncAnchorDirty(b)
	}
	cl.acquireOwnership(b, local)
}

// ncAnchorDirty re-establishes the NC frame for a remote block the
// cluster is about to hold Modified. Allocate-on-miss NCs (nc, NCD, the
// infinite references) keep a Modified frame as the dirty-inclusion
// anchor — without it, a write upgrade that invalidated the old frame
// would leave the cluster's only dirty copy invisible to the NC's
// inclusion machinery. Victim caches allocate nothing here (OnFill is a
// no-op), preserving their never-worse-than-no-NC property.
func (cl *Cluster) ncAnchorDirty(b memsys.Block) {
	for _, ev := range cl.nc.OnFill(b, true) {
		cl.handleNCEviction(ev)
	}
}

// acquireOwnership obtains system-level write ownership if the cluster
// does not already have it, counting the network transaction for
// remote-home blocks.
func (cl *Cluster) acquireOwnership(b memsys.Block, local bool) {
	if cl.home.IsExclusive(cl.id, b) {
		return
	}
	cl.home.Upgrade(cl.id, b)
	if !local {
		cl.C.Upgrades.Inc(true)
	}
	var arg uint8
	if local {
		arg = 1
	}
	cl.emit(telemetry.EvUpgrade, uint64(b), arg)
}

// localFetch satisfies a miss whose home is this cluster from local
// memory. A block dirty in a remote cluster is retrieved over the
// network, but following the paper's model (§4: "cache misses to remote
// data, i.e. where the home node is not the local node") the miss still
// counts as local; the retrieval is tracked separately and its
// write-back appears in the owner's traffic.
func (cl *Cluster) localFetch(p int, b memsys.Block, write bool) {
	reply := cl.home.Fetch(cl.id, b, write)
	cl.C.LocalMem.Inc(write)
	if reply.RemoteDirty {
		cl.C.LocalDirtyFetch++
	}
	st := cache.Shared
	switch {
	case write:
		st = cache.Modified
	case cl.home.SoleSharer(cl.id, b):
		st = cache.Exclusive
	}
	cl.fill(p, b, st, false)
}

// remoteFetch performs the full network access for a remote miss,
// including page-cache installation and relocation triggering.
func (cl *Cluster) remoteFetch(p int, b memsys.Block, write bool) {
	reply := cl.home.Fetch(cl.id, b, write)
	cl.C.RemoteByClass[reply.Class].Inc(write)
	if reply.RemoteDirty {
		cl.C.Remote3Hop.Inc(write) // dirty intervention: a three-hop access
	}
	arg := uint8(reply.Class) & 3
	if reply.RemoteDirty {
		arg |= 1 << 6
	}
	if write {
		arg |= 1 << 7
	}
	cl.emit(telemetry.EvRemoteMiss, uint64(b), arg)

	pcBacked := false
	if cl.pc != nil {
		page := memsys.PageOfBlock(b)
		if cl.mode == CountersDirectory && reply.Class == stats.Capacity &&
			!cl.pc.IsMapped(page) &&
			reply.CapacityCount > cl.pc.Policy().Threshold() {
			cl.relocate(page)
		}
		if !write && cl.pc.IsMapped(page) {
			// The fetched data lands in the frame (the frame is the
			// block's local physical backing in Simple COMA).
			cl.pc.Install(b, false)
			pcBacked = true
		}
	}

	st := cache.Modified
	if !write {
		if pcBacked {
			st = cache.Shared // the frame holds the master local copy
		} else {
			st = cache.RemoteMaster // first clean copy in the node (MESIR)
		}
	}
	cl.fill(p, b, st, true)
}

// fill inserts the block into processor p's cache, handles the displaced
// victim, and informs allocate-on-miss NCs about remote fills.
func (cl *Cluster) fill(p int, b memsys.Block, st cache.State, remoteFill bool) {
	if remoteFill {
		for _, ev := range cl.nc.OnFill(b, st == cache.Modified) {
			cl.handleNCEviction(ev)
		}
	}
	cl.emit(telemetry.EvFill, uint64(b), uint8(st))
	victim := cl.bus.Fill(p, b, st)
	if victim.State.Valid() {
		cl.handleL1Victim(p, victim)
	}
}

// handleL1Victim processes a line displaced from processor p's cache.
func (cl *Cluster) handleL1Victim(p int, victim cache.Line) {
	b := victim.Block
	switch victim.State {
	case cache.Shared, cache.Exclusive:
		// Silent replacement: Shared copies are never masters;
		// Exclusive copies are clean local data.
		return
	case cache.RemoteMaster:
		// MESIR replacement transaction (paper §3.2): a Shared sibling
		// assumes mastership, otherwise the victim cache accepts the
		// last clean copy in the node.
		if cl.bus.TransferMastership(p, b) {
			cl.C.MastershipXfer++
			return
		}
		if res := cl.nc.AcceptVictim(b, false); res.Accepted {
			cl.afterVictimAccept(b, false, res)
			return
		}
		if cl.pc != nil {
			cl.pc.Deposit(b, false)
		}
	case cache.Modified, cache.Owned:
		if cl.home.HomeOf(memsys.PageOfBlock(b)) == cl.id {
			// Local dirty victim: write to local memory, no traffic.
			cl.home.WriteBack(cl.id, b)
			return
		}
		if res := cl.nc.AcceptVictim(b, true); res.Accepted {
			cl.afterVictimAccept(b, true, res)
			return
		}
		if cl.pc != nil && cl.pc.Deposit(b, true) {
			return // the dirty data stays in the cluster
		}
		cl.writebackHome(b)
	}
}

// captureDowngrade handles the write-back generated when a Modified line
// is downgraded to Shared by an intra-cluster read. For remote blocks
// the victim NC captures it (polluting itself while the caches still
// hold copies — paper §3.2 keeps this, having found an O state not worth
// its cost); without an NC or page cache the block updates remote memory.
func (cl *Cluster) captureDowngrade(b memsys.Block, local bool) {
	cl.C.DowngradeWB++
	if local {
		cl.home.WriteBack(cl.id, b)
		return
	}
	if res := cl.nc.AcceptVictim(b, true); res.Accepted {
		cl.afterVictimAccept(b, true, res)
		return
	}
	if cl.pc != nil && cl.pc.Deposit(b, true) {
		return
	}
	cl.writebackHome(b)
}

// afterVictimAccept finishes an NC insert: the insert is counted and
// traced, write-through NCs get the dirty data forwarded home, recycled
// frames are handled and, in vxp mode, the set's victimization counter
// is checked against the relocation threshold.
func (cl *Cluster) afterVictimAccept(b memsys.Block, dirty bool, res core.VictimResult) {
	cl.C.NCInserts++
	var arg uint8
	if dirty {
		arg |= 1
	}
	if res.WriteThrough {
		arg |= 2
	}
	cl.emit(telemetry.EvVictimize, uint64(b), arg)
	if res.WriteThrough {
		cl.writebackHome(b)
	}
	for _, ev := range res.Evictions {
		cl.handleNCEviction(ev)
	}
	if cl.mode != CountersNCSet || res.SetCounter == 0 {
		return
	}
	if res.SetCounter <= cl.pc.Policy().Threshold() {
		return
	}
	if page, ok := cl.scnc.PredominantPage(res.Set); ok {
		cl.relocate(page)
	}
	cl.scnc.ResetSetCounter(res.Set)
}

// handleNCEviction processes a frame the NC recycled.
func (cl *Cluster) handleNCEviction(ev core.Eviction) {
	cl.C.NCEvictions++
	b := ev.Block
	dirty := ev.Dirty
	var arg uint8
	if ev.Dirty {
		arg |= 1
	}
	if ev.ForceL1Invalidate {
		arg |= 2
	}
	cl.emit(telemetry.EvNCEvict, uint64(b), arg)
	if ev.ForceL1Invalidate {
		copies, hadDirty := cl.bus.InvalidateAll(b)
		cl.C.NCForcedL1Evict += int64(copies)
		if hadDirty {
			dirty = true // a cache held newer data; that is what goes home
		}
	}
	if dirty {
		if cl.pc != nil && cl.pc.Deposit(b, true) {
			return
		}
		cl.writebackHome(b)
		return
	}
	if cl.pc != nil {
		cl.pc.Deposit(b, false)
	}
}

// writebackHome sends a dirty block over the network to its home.
func (cl *Cluster) writebackHome(b memsys.Block) {
	cl.C.WritebacksHome++
	cl.emit(telemetry.EvWriteback, uint64(b), 0)
	cl.home.WriteBack(cl.id, b)
}

// relocate maps a remote page into the page cache (paper §3.3), flushing
// the least-recently-missed page if a frame must be recycled. Relocating
// an already-mapped page only resets its counter.
func (cl *Cluster) relocate(page memsys.Page) {
	if cl.pc == nil {
		return
	}
	if cl.pc.IsMapped(page) {
		cl.home.ResetRelocationCounter(page, cl.id)
		return
	}
	ev, raised := cl.pc.Relocate(page)
	cl.C.Relocations++
	if raised {
		cl.C.ThresholdRaises++
	}
	var arg uint8
	if raised {
		arg = 1
	}
	cl.emit(telemetry.EvRelocate, uint64(page), arg)
	if ev != nil {
		cl.C.PageEvictions++
		cl.emit(telemetry.EvPageEvict, uint64(ev.Page), 0)
		cl.flushEvictedPage(ev)
	}
	cl.home.ResetRelocationCounter(page, cl.id)
}

// flushEvictedPage removes every trace of an evicted page from the
// cluster: processor-cache and NC copies are evicted (dirty ones written
// home), the frame's dirty blocks are written home, and the page's
// relocation counter restarts. These forced evictions are the source of
// the "future misses caused by page re-mappings" of §6.3.
func (cl *Cluster) flushEvictedPage(ev *pagecache.Evicted) {
	for _, b := range cl.bus.EvictPage(ev.Page) {
		cl.writebackHome(b)
	}
	for _, b := range cl.nc.EvictPage(ev.Page) {
		cl.writebackHome(b)
	}
	for _, b := range ev.Dirty {
		cl.C.PCFlushedDirty++
		cl.writebackHome(b)
	}
	cl.home.ResetRelocationCounter(ev.Page, cl.id)
}

// FlushPage removes every copy of page p from the cluster (an OS
// page-level shootdown: replica collapse or migration), writing dirty
// blocks home. It counts as a replica flush in the event account.
func (cl *Cluster) FlushPage(p memsys.Page) {
	for _, b := range cl.bus.EvictPage(p) {
		cl.writebackHome(b)
	}
	for _, b := range cl.nc.EvictPage(p) {
		cl.writebackHome(b)
	}
	if cl.pc != nil && cl.pc.IsMapped(p) {
		if ev := cl.pc.Unmap(p); ev != nil {
			for _, b := range ev.Dirty {
				cl.writebackHome(b)
			}
		}
	}
	cl.C.ReplicaFlushes++
}

// InvalidateBlock applies a system-level invalidation (a remote cluster
// is writing b): every local copy dies. It reports whether the cluster
// actually held a copy — a false invalidation means the block was
// victimized earlier, and under the §3.4 counter-decrement refinement
// the relocation count it contributed can be corrected (the next miss
// will be coherence, not capacity).
func (cl *Cluster) InvalidateBlock(b memsys.Block) (hadCopy bool) {
	copies, _ := cl.bus.InvalidateAll(b)
	hadCopy = copies > 0
	if cl.nc.Contains(b) {
		hadCopy = true
	}
	cl.nc.Invalidate(b)
	if cl.pc != nil {
		if cl.pc.Lookup(b).Valid {
			hadCopy = true
		}
		cl.pc.Invalidate(b)
	}
	if !hadCopy && cl.decr && cl.mode == CountersNCSet {
		cl.scnc.DecrementSetCounterFor(b)
	}
	var arg uint8
	if hadCopy {
		arg = 1
	}
	cl.emit(telemetry.EvInvalidate, uint64(b), arg)
	return hadCopy
}

// FlushDirty applies a read intervention: a remote cluster is reading b,
// which this cluster holds dirty. The copy is downgraded to clean and
// the dirty data crosses the network to home. A remote-home copy keeps
// MESIR mastership (R) so the last clean copy can still be victimized
// into the network cache later.
func (cl *Cluster) FlushDirty(b memsys.Block) {
	to := cache.RemoteMaster
	if cl.home.HomeOf(memsys.PageOfBlock(b)) == cl.id {
		to = cache.Shared
	}
	// Every structure holding dirty data is downgraded: the processor
	// caches, the NC anchor AND the page-cache frame may each carry a
	// dirty mark for the same block, and leaving any of them dirty after
	// the data went home would fake a second dirty owner.
	dirty := cl.bus.DowngradeDirty(b, to)
	if cl.nc.Downgrade(b) {
		dirty = true
	}
	if cl.pc != nil && cl.pc.Clean(b) {
		dirty = true
	}
	var arg uint8
	if dirty {
		arg = 1
	}
	cl.emit(telemetry.EvFlushDirty, uint64(b), arg)
	if !dirty {
		return // already clean (stale intervention); nothing crosses the net
	}
	cl.writebackHome(b)
}

// HasBlock reports whether any structure in the cluster holds b (testing
// and coherence cross-checks).
func (cl *Cluster) HasBlock(b memsys.Block) bool {
	if cl.bus.HasBlock(b) || cl.nc.Contains(b) {
		return true
	}
	if cl.pc != nil {
		if st := cl.pc.Lookup(b); st.Valid {
			return true
		}
	}
	return false
}

// HasDirty reports whether the cluster holds the dirty copy of b in any
// structure: a processor cache, the network cache or a page-cache frame.
func (cl *Cluster) HasDirty(b memsys.Block) bool {
	if cl.bus.HasDirty(b) {
		return true
	}
	if cl.nc.ContainsDirty(b) {
		return true
	}
	if cl.pc != nil && cl.pc.Lookup(b).Dirty {
		return true
	}
	return false
}
