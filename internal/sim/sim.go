// Package sim assembles the whole clustered DSM: the clusters of package
// cluster, the system directory of package directory, and the page
// placement map. It implements cluster.HomeService — the "network" — and
// drives reference traces through the machine, producing the event
// counters that the paper's performance model (package stats) evaluates.
package sim

import (
	"errors"
	"fmt"

	"dsmnc/internal/cache"
	"dsmnc/internal/check"
	"dsmnc/internal/cluster"
	"dsmnc/internal/core"
	"dsmnc/internal/directory"
	"dsmnc/internal/migration"
	"dsmnc/internal/pagecache"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/telemetry"
	"dsmnc/trace"
)

// Sentinel errors. Use errors.Is to classify failures from Apply/ApplyBatch.
var (
	// ErrProtocol marks an internal protocol invariant violation — the
	// simulator's own state went inconsistent. It wraps the structured
	// *check.CheckError when the invariant checker caught it.
	ErrProtocol = errors.New("sim: protocol invariant violated")
	// ErrBadRef marks a malformed input reference (out-of-range PID,
	// address beyond the machine's address space, unknown op).
	ErrBadRef = errors.New("sim: malformed reference")
)

// Config describes one system under evaluation.
type Config struct {
	Geometry memsys.Geometry
	L1       cache.Config

	// NewNC builds one cluster's network cache; nil means no NC.
	NewNC func() (core.NC, error)
	// NewPC builds one cluster's page cache; nil means no page cache.
	NewPC func() (*pagecache.PageCache, error)
	// Counters selects the relocation trigger (requires a page cache
	// unless CountersNone).
	Counters cluster.CounterMode

	// NewDirectory builds the system coherence engine; nil means the
	// full-map directory. Use directory.NewLimited for the Dir_iB
	// scalability experiments.
	NewDirectory func(clusters int) (directory.Protocol, error)

	// Migration, when non-nil, enables SGI-Origin-style OS page
	// migration and replication with the given thresholds.
	Migration *migration.Config

	// MOESI enables the dirty-shared O state (paper §3.2's option).
	MOESI bool
	// DecrementCounters enables the §3.4 counter-decrement refinement
	// for both directory and NC-set relocation counters.
	DecrementCounters bool

	// Check attaches the coherence invariant checker (internal/check):
	// after every applied reference the machine-wide invariants for the
	// touched block are validated, and the first violation surfaces as
	// an ErrProtocol-wrapped *check.CheckError from Apply/ApplyBatch.
	// Roughly doubles per-reference cost; meant for tests and checked
	// sweeps.
	Check bool

	// Sampler, when non-nil, records a machine-wide time-series sample
	// every Sampler.Every() applied references. The simulation itself
	// is bit-identical with and without it.
	Sampler *telemetry.Sampler
	// Tracer, when non-nil, receives a structured coherence event for
	// every fill, victimization, invalidation, relocation and
	// write-back, stamped with the applied-reference clock.
	Tracer *telemetry.Tracer
}

// System is one simulated machine.
type System struct {
	geo      memsys.Geometry
	dir      directory.Protocol
	dirFull  *directory.Directory // non-nil when dir is the full-map directory: direct calls skip the interface dispatch on every miss
	ft       *memsys.FirstTouch   // first-touch page placement (paper §5.2)
	clusters []*cluster.Cluster
	decrDir  bool // decrement directory counters on false invalidations
	mig      *migration.Engine
	checker  *check.Checker
	applied  int64 // references successfully applied (the trace position)
	err      error // sticky: first internal failure, surfaced by Apply

	// pidCluster/pidLocal precompute the Geometry.ClusterOf/LocalProc
	// divisions for every processor id — Apply decodes a pid with two
	// indexed loads instead of a div and a mod.
	pidCluster []int32
	pidLocal   []int32

	sampler     *telemetry.Sampler
	tracer      *telemetry.Tracer
	sampleEvery int64 // cached Sampler.Every(); 0 disables sampling
	nextSample  int64 // applied count that triggers the next sample
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		geo:     cfg.Geometry,
		ft:      memsys.NewFirstTouch(),
		sampler: cfg.Sampler,
		tracer:  cfg.Tracer,
	}
	if s.sampler != nil {
		s.sampleEvery = s.sampler.Every()
		s.nextSample = s.sampleEvery
	}
	if cfg.NewDirectory != nil {
		d, err := cfg.NewDirectory(cfg.Geometry.Clusters)
		if err != nil {
			return nil, err
		}
		s.dir = d
	} else {
		d, err := directory.New(cfg.Geometry.Clusters)
		if err != nil {
			return nil, err
		}
		s.dir = d
	}
	s.dirFull, _ = s.dir.(*directory.Directory)
	procs := cfg.Geometry.Procs()
	s.pidCluster = make([]int32, procs)
	s.pidLocal = make([]int32, procs)
	for pid := 0; pid < procs; pid++ {
		s.pidCluster[pid] = int32(cfg.Geometry.ClusterOf(pid))
		s.pidLocal[pid] = int32(cfg.Geometry.LocalProc(pid))
	}
	if cfg.Migration != nil {
		s.mig = migration.NewEngine(*cfg.Migration)
	}
	if cfg.Counters == cluster.CountersDirectory {
		s.dir.EnableCounters()
		s.decrDir = cfg.DecrementCounters
	}
	s.clusters = make([]*cluster.Cluster, cfg.Geometry.Clusters)
	for i := range s.clusters {
		var nc core.NC = core.NoNC{}
		if cfg.NewNC != nil {
			n, err := cfg.NewNC()
			if err != nil {
				return nil, err
			}
			nc = n
		}
		var pc *pagecache.PageCache
		if cfg.NewPC != nil {
			p, err := cfg.NewPC()
			if err != nil {
				return nil, err
			}
			pc = p
		}
		cl, err := cluster.New(cluster.Config{
			ID:                i,
			Procs:             cfg.Geometry.ProcsPerCluster,
			L1:                cfg.L1,
			NC:                nc,
			PC:                pc,
			Counters:          cfg.Counters,
			Home:              s,
			MOESI:             cfg.MOESI,
			DecrementCounters: cfg.DecrementCounters,
			Trace:             cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		s.clusters[i] = cl
	}
	if cfg.Check {
		s.checker = check.New(check.Config{
			Geometry: cfg.Geometry,
			Dir:      s.dir,
			Clusters: s.clusters,
			Home:     s.ft.HomeIfPlaced,
		})
	}
	return s, nil
}

// Geometry returns the machine topology.
func (s *System) Geometry() memsys.Geometry { return s.geo }

// Cluster returns cluster i.
func (s *System) Cluster(i int) *cluster.Cluster { return s.clusters[i] }

// Directory exposes the system coherence engine (testing and reporting).
func (s *System) Directory() directory.Protocol { return s.dir }

// Checker exposes the invariant checker, or nil when Config.Check was
// off.
func (s *System) Checker() *check.Checker { return s.checker }

// Err returns the machine's sticky internal error: the first protocol
// failure recorded during a reference. Once set, every later Apply
// returns it.
func (s *System) Err() error { return s.err }

// Apply drives one reference through the machine. It rejects malformed
// references (ErrBadRef) before touching any state, surfaces internal
// protocol failures (ErrProtocol), and — when the invariant checker is
// attached — validates the touched block's machine-wide invariants
// afterwards.
func (s *System) Apply(r trace.Ref) error {
	if s.err != nil {
		return s.err
	}
	pid := int(r.PID)
	if pid < 0 || pid >= len(s.pidCluster) {
		return fmt.Errorf("%w: pid %d out of range [0,%d)", ErrBadRef, r.PID, s.geo.Procs())
	}
	if r.Addr > memsys.MaxAddr {
		return fmt.Errorf("%w: address %#x beyond %d-bit address space", ErrBadRef, uint64(r.Addr), memsys.AddrSpaceBits)
	}
	if r.Op != trace.Read && r.Op != trace.Write {
		return fmt.Errorf("%w: unknown op %d", ErrBadRef, r.Op)
	}
	c := int(s.pidCluster[pid])
	page := memsys.PageOf(r.Addr)
	home := s.ft.Home(page, c)
	write := r.Op == trace.Write
	if s.tracer != nil {
		s.tracer.Tick(s.applied)
	}
	if s.mig != nil {
		if write {
			// A write to a replicated page collapses every replica
			// first (OS shootdown), as the Origin does.
			for _, rc := range s.mig.CollapseReplicas(page) {
				s.clusters[rc].FlushPage(page)
			}
		} else if home != c && s.mig.HasReplica(c, page) {
			// Reads of a replicated page are served from the local
			// copy.
			s.mig.RecordReplicaHit()
			s.clusters[c].C.ReplicaHits.Inc(false)
			home = c
		}
	}
	s.clusters[c].Access(int(s.pidLocal[pid]), r.Addr, write, home)
	if s.err != nil {
		return s.err
	}
	if s.checker != nil {
		if cerr := s.checker.CheckRef(r); cerr != nil {
			s.err = fmt.Errorf("%w: %w", ErrProtocol, cerr)
			return s.err
		}
	}
	s.applied++
	if s.sampleEvery > 0 && s.applied >= s.nextSample {
		s.nextSample += s.sampleEvery
		s.sampler.Record(s.sampleNow())
	}
	return nil
}

// ApplyBatch drives a run of references through the machine, returning
// how many applied and the first error. It is exactly a loop of Apply —
// same validation, same sticky-error behavior, same counters — but when
// no tracer, migration engine, checker or sampler is attached, the
// per-reference nil checks for those hooks are hoisted out of the loop.
func (s *System) ApplyBatch(refs []trace.Ref) (int, error) {
	if s.tracer != nil || s.mig != nil || s.checker != nil || s.sampleEvery > 0 {
		for i := range refs {
			if err := s.Apply(refs[i]); err != nil {
				return i, err
			}
		}
		return len(refs), nil
	}
	if s.err != nil {
		return 0, s.err
	}
	ft, pidCluster, pidLocal, clusters := s.ft, s.pidCluster, s.pidLocal, s.clusters
	// Local (page → home) memo: without a migration engine a placed
	// page's home never changes, so consecutive same-page references
	// (the common case under quantum interleaving) skip the placement
	// lookup entirely. haveLast starts false so the first reference
	// always consults FirstTouch.
	var (
		lastPage memsys.Page
		lastHome int
		haveLast bool
	)
	for i := range refs {
		r := refs[i]
		pid := int(r.PID)
		if pid < 0 || pid >= len(pidCluster) || r.Addr > memsys.MaxAddr ||
			(r.Op != trace.Read && r.Op != trace.Write) {
			return i, s.Apply(r) // rejects with the exact Apply error
		}
		c := int(pidCluster[pid])
		page := memsys.PageOf(r.Addr)
		if !haveLast || page != lastPage {
			lastHome = ft.Home(page, c)
			lastPage, haveLast = page, true
		}
		clusters[c].Access(int(pidLocal[pid]), r.Addr, r.Op == trace.Write, lastHome)
		if s.err != nil {
			return i, s.err
		}
		s.applied++
	}
	return len(refs), nil
}

// sampleNow reads the machine into one raw telemetry sample: the
// aggregated event counters plus the NC/PC occupancy of every cluster.
func (s *System) sampleNow() telemetry.Sample {
	t := s.Totals()
	smp := telemetry.Sample{
		Refs:           s.applied,
		Reads:          t.Refs.Read,
		Writes:         t.Refs.Write,
		L1Hits:         t.L1Hits.Total(),
		NCHits:         t.NCHits.Total(),
		PCHits:         t.PCHits.Total(),
		RemoteMisses:   t.Remote().Total(),
		RemoteCapacity: t.RemoteCapacity().Total(),
		NCInserts:      t.NCInserts,
		NCEvictions:    t.NCEvictions,
		Relocations:    t.Relocations,
		PageEvictions:  t.PageEvictions,
		WritebacksHome: t.WritebacksHome,
	}
	for _, cl := range s.clusters {
		used, frames := cl.NCOccupancy()
		smp.NCUsed += int64(used)
		smp.NCFrames += int64(frames)
		used, frames = cl.PCOccupancy()
		smp.PCUsed += int64(used)
		smp.PCFrames += int64(frames)
	}
	return smp
}

// FlushSample records one final sample at the current position, so the
// series always ends with the machine's exact end-of-run counters. It
// is a no-op without a sampler or when the last interval sample already
// sits at the current position.
func (s *System) FlushSample() {
	if s.sampler == nil {
		return
	}
	if last, ok := s.sampler.Latest(); ok && last.Refs == s.applied {
		return
	}
	s.sampler.Record(s.sampleNow())
}

// RefsApplied returns how many references have been successfully
// applied — the machine's position in its trace.
func (s *System) RefsApplied() int64 { return s.applied }

// Totals aggregates the per-cluster event counters.
func (s *System) Totals() stats.Counters {
	var t stats.Counters
	for _, cl := range s.clusters {
		t.Add(&cl.C)
	}
	return t
}

// --- cluster.HomeService ---

// Fetch performs a block fetch at b's home directory on behalf of a
// cluster, applying invalidations and dirty flushes to the other
// clusters. Capacity counting is suppressed for local fetches: R-NUMA's
// relocation counters track capacity misses to remote data only.
func (s *System) Fetch(c int, b memsys.Block, write bool) cluster.FetchReply {
	home := s.HomeOf(memsys.PageOfBlock(b))
	var res directory.AccessResult
	if d := s.dirFull; d != nil {
		res = d.Access(c, b, write, c != home)
	} else {
		res = s.dir.Access(c, b, write, c != home)
	}
	if s.mig != nil && c != home {
		page := memsys.PageOfBlock(b)
		switch s.mig.OnRemoteMiss(c, page, write) {
		case migration.Replicate:
			s.clusters[c].C.Replications++
		case migration.Migrate:
			s.ft.Rehome(page, c)
			s.clusters[c].C.Migrations++
		}
	}
	remoteDirty := false
	if write {
		for _, oc := range res.Invalidate {
			if oc == res.FlushOwner {
				remoteDirty = true
			}
			s.invalidate(oc, b)
		}
	} else if res.FlushOwner != directory.NoOwner {
		remoteDirty = true
		s.clusters[res.FlushOwner].FlushDirty(b)
	}
	return cluster.FetchReply{
		Class:         res.Class,
		CapacityCount: res.CapacityCount,
		RemoteDirty:   remoteDirty,
	}
}

// Upgrade grants system-level write ownership, invalidating every other
// sharer.
func (s *System) Upgrade(c int, b memsys.Block) {
	for _, oc := range s.dir.Upgrade(c, b) {
		s.invalidate(oc, b)
	}
}

// invalidate applies a system-level invalidation to cluster oc; a false
// invalidation (the cluster had already victimized the block) optionally
// decrements the R-NUMA relocation counter (§3.4).
func (s *System) invalidate(oc int, b memsys.Block) {
	if !s.clusters[oc].InvalidateBlock(b) && s.decrDir {
		s.dir.DecrementCounter(memsys.PageOfBlock(b), oc)
	}
}

// WriteBack delivers a dirty block to home memory.
func (s *System) WriteBack(c int, b memsys.Block) {
	if d := s.dirFull; d != nil {
		d.WriteBack(c, b)
		return
	}
	s.dir.WriteBack(c, b)
}

// IsExclusive reports whether cluster c owns b system-wide.
func (s *System) IsExclusive(c int, b memsys.Block) bool {
	if d := s.dirFull; d != nil {
		return d.IsExclusive(c, b)
	}
	return s.dir.IsExclusive(c, b)
}

// SoleSharer reports whether cluster c is the only presence-bit holder.
func (s *System) SoleSharer(c int, b memsys.Block) bool {
	if d := s.dirFull; d != nil {
		return d.SoleSharer(c, b)
	}
	return s.dir.SoleSharer(c, b)
}

// HomeOf returns the home cluster of an already-placed page. A page
// referenced before placement is a protocol failure; it is recorded in
// the machine's sticky error (surfaced by the enclosing Apply) and home
// 0 is returned so the access can limp to the end of the reference.
func (s *System) HomeOf(p memsys.Page) int {
	h, ok := s.ft.HomeIfPlaced(p)
	if !ok {
		s.fail(fmt.Errorf("%w: page %d referenced before placement", ErrProtocol, p))
		return 0
	}
	return h
}

// fail records the machine's first internal error.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// ResetRelocationCounter clears the R-NUMA counter for (p, c).
func (s *System) ResetRelocationCounter(p memsys.Page, c int) {
	s.dir.ResetCounter(p, c)
}
