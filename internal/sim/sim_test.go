package sim

import (
	"testing"

	"dsmnc/internal/cache"
	"dsmnc/internal/cluster"
	"dsmnc/internal/core"
	"dsmnc/internal/pagecache"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/trace"
)

// Test geometry: 2 clusters x 2 processors, tiny caches so evictions are
// easy to provoke. L1: 2 sets x 2 ways = 256 B.
func testConfig() Config {
	return Config{
		Geometry: memsys.Geometry{Clusters: 2, ProcsPerCluster: 2},
		L1:       cache.Config{Bytes: 4 * memsys.BlockBytes, Ways: 2},
	}
}

func mustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func read(pid int, a memsys.Addr) trace.Ref {
	return trace.Ref{PID: int32(pid), Op: trace.Read, Addr: a}
}

func write(pid int, a memsys.Addr) trace.Ref {
	return trace.Ref{PID: int32(pid), Op: trace.Write, Addr: a}
}

// addr builds a byte address from (page, block-in-page).
func addr(page, blk int) memsys.Addr {
	return memsys.Addr(page)*memsys.PageBytes + memsys.Addr(blk)*memsys.BlockBytes
}

func TestFirstTouchPlacement(t *testing.T) {
	s := mustNew(testConfig())
	// P0 (cluster 0) touches page 0; P2 (cluster 1) touches page 1.
	s.Apply(read(0, addr(0, 0)))
	s.Apply(read(2, addr(1, 0)))
	if s.HomeOf(0) != 0 || s.HomeOf(1) != 1 {
		t.Fatalf("homes = %d,%d want 0,1", s.HomeOf(0), s.HomeOf(1))
	}
	tot := s.Totals()
	if tot.LocalMem.Read != 2 {
		t.Fatalf("LocalMem = %+v, want 2 local reads", tot.LocalMem)
	}
	if tot.Remote().Total() != 0 {
		t.Fatal("local first touches counted as remote")
	}
}

func TestRemoteColdMiss(t *testing.T) {
	s := mustNew(testConfig())
	s.Apply(read(0, addr(0, 0))) // places page 0 on cluster 0
	s.Apply(read(2, addr(0, 0))) // cluster 1: remote cold miss
	tot := s.Totals()
	if tot.RemoteByClass[stats.Cold].Read != 1 {
		t.Fatalf("remote cold reads = %d, want 1", tot.RemoteByClass[stats.Cold].Read)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	s := mustNew(testConfig())
	s.Apply(read(0, addr(0, 0)))
	s.Apply(read(0, addr(0, 0)))
	tot := s.Totals()
	if tot.L1Hits.Read != 1 {
		t.Fatalf("L1 hits = %d, want 1", tot.L1Hits.Read)
	}
}

func TestIntraClusterSharing(t *testing.T) {
	s := mustNew(testConfig())
	s.Apply(read(2, addr(0, 0))) // P2 places page 0 on cluster 1... wait, requester cluster
	s.Apply(read(3, addr(0, 0))) // sibling P3: cache-to-cache, same cluster
	tot := s.Totals()
	if tot.LocalC2C.Read != 1 {
		t.Fatalf("LocalC2C = %+v, want 1 read", tot.LocalC2C)
	}
}

func TestRemoteC2CAfterRemoteFill(t *testing.T) {
	s := mustNew(testConfig())
	s.Apply(read(0, addr(0, 0))) // home cluster 0
	s.Apply(read(2, addr(0, 0))) // cluster 1 fetches remotely (R state)
	s.Apply(read(3, addr(0, 0))) // sibling gets it cache-to-cache
	tot := s.Totals()
	if tot.C2C.Read != 1 {
		t.Fatalf("C2C = %+v, want 1 read", tot.C2C)
	}
	// The R master kept mastership; the sibling holds Shared.
	cl := s.Cluster(1)
	b := memsys.BlockOf(addr(0, 0))
	if !cl.Bus().HasBlock(b) {
		t.Fatal("block lost")
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	s := mustNew(testConfig())
	a := addr(0, 0)
	b := memsys.BlockOf(a)
	s.Apply(read(0, a))  // home cluster 0
	s.Apply(read(2, a))  // cluster 1 shares
	s.Apply(write(0, a)) // home cluster writes: cluster 1 invalidated
	if s.Cluster(1).HasBlock(b) {
		t.Fatal("remote sharer survived invalidation")
	}
	if s.Directory().DirtyOwner(b) != 0 {
		t.Fatalf("dirty owner = %d, want 0", s.Directory().DirtyOwner(b))
	}
	// Cluster 1 re-reads: coherence miss (necessary), and cluster 0
	// must flush its dirty copy.
	s.Apply(read(2, a))
	tot := s.Totals()
	if tot.RemoteByClass[stats.Coherence].Read != 1 {
		t.Fatalf("coherence reads = %d, want 1", tot.RemoteByClass[stats.Coherence].Read)
	}
	if tot.WritebacksHome != 1 {
		t.Fatalf("writebacks = %d, want 1 (read intervention flush)", tot.WritebacksHome)
	}
	if err := checkCoherence(s, []memsys.Block{b}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityMissClassification(t *testing.T) {
	s := mustNew(testConfig())
	a := addr(0, 0)
	s.Apply(read(0, a)) // home cluster 0
	s.Apply(read(2, a)) // cluster 1: cold
	// Evict it from P2's cache: blocks 0 and 2 of page 0 plus 0 of page 1
	// map to set 0 (2 ways): fill two more conflicting lines.
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	s.Apply(read(2, a)) // refetch: capacity (sticky bit still set)
	tot := s.Totals()
	if tot.RemoteByClass[stats.Capacity].Read != 1 {
		t.Fatalf("capacity reads = %d, want 1; counters %+v", tot.RemoteByClass[stats.Capacity].Read, tot.RemoteByClass)
	}
}

func TestMESIRVictimGoesToVictimNC(t *testing.T) {
	cfg := testConfig()
	cfg.NewNC = func() (core.NC, error) {
		return core.NewVictim(core.VictimConfig{Bytes: 4 * memsys.BlockBytes, Ways: 4})
	}
	s := mustNew(cfg)
	a := addr(0, 0)
	b := memsys.BlockOf(a)
	s.Apply(read(0, a)) // home 0
	s.Apply(read(2, a)) // cluster 1 holds R
	// Conflict-evict from P2's L1 set 0.
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	cl := s.Cluster(1)
	if cl.Bus().HasBlock(b) {
		t.Fatal("block still in L1 (conflict eviction expected)")
	}
	if !cl.NC().Contains(b) {
		t.Fatal("R victim not captured by the victim NC")
	}
	// Refetch hits the NC, not the network.
	before := cl.C.Remote().Read
	s.Apply(read(2, a))
	if cl.C.NCHits.Read != 1 {
		t.Fatalf("NC hits = %d, want 1", cl.C.NCHits.Read)
	}
	if cl.C.Remote().Read != before {
		t.Fatal("NC hit went remote anyway")
	}
	if cl.NC().Contains(b) {
		t.Fatal("victim NC kept the frame after a hit")
	}
}

func TestMastershipTransferAvoidsNC(t *testing.T) {
	cfg := testConfig()
	cfg.NewNC = func() (core.NC, error) {
		return core.NewVictim(core.VictimConfig{Bytes: 4 * memsys.BlockBytes, Ways: 4})
	}
	s := mustNew(cfg)
	a := addr(0, 0)
	s.Apply(read(0, a)) // home 0
	s.Apply(read(2, a)) // P2: R
	s.Apply(read(3, a)) // P3: S (c2c)
	// Evict from P2: P3 should take mastership, NC stays empty.
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	cl := s.Cluster(1)
	if cl.C.MastershipXfer != 1 {
		t.Fatalf("mastership transfers = %d, want 1", cl.C.MastershipXfer)
	}
	if cl.NC().Contains(memsys.BlockOf(a)) {
		t.Fatal("NC captured a block that had a Shared sibling")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	s := mustNew(testConfig()) // no NC, no PC
	a := addr(0, 0)
	s.Apply(read(0, a))  // home 0
	s.Apply(write(2, a)) // cluster 1 dirty
	// Conflict-evict the dirty line.
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	tot := s.Totals()
	if tot.WritebacksHome != 1 {
		t.Fatalf("writebacks = %d, want 1", tot.WritebacksHome)
	}
	if s.Directory().DirtyOwner(memsys.BlockOf(a)) != directoryNoOwner() {
		t.Fatal("write-back did not clear ownership")
	}
}

func TestDowngradeCapturedByVictimNC(t *testing.T) {
	cfg := testConfig()
	cfg.NewNC = func() (core.NC, error) {
		return core.NewVictim(core.VictimConfig{Bytes: 4 * memsys.BlockBytes, Ways: 4})
	}
	s := mustNew(cfg)
	a := addr(0, 0)
	b := memsys.BlockOf(a)
	s.Apply(read(0, a))  // home 0
	s.Apply(write(2, a)) // cluster 1 M
	s.Apply(read(3, a))  // sibling read: M->S downgrade, NC captures
	cl := s.Cluster(1)
	if cl.C.DowngradeWB != 1 {
		t.Fatalf("downgrades = %d, want 1", cl.C.DowngradeWB)
	}
	if !cl.NC().Contains(b) {
		t.Fatal("downgrade write-back not captured by NC (pollution expected)")
	}
	if cl.C.WritebacksHome != 0 {
		t.Fatal("captured downgrade still crossed the network")
	}
	// Without an NC the downgrade must update remote memory.
	s2 := mustNew(testConfig())
	s2.Apply(read(0, a))
	s2.Apply(write(2, a))
	s2.Apply(read(3, a))
	if s2.Totals().WritebacksHome != 1 {
		t.Fatalf("no-NC downgrade writebacks = %d, want 1", s2.Totals().WritebacksHome)
	}
}

func TestUpgradeCountsTraffic(t *testing.T) {
	s := mustNew(testConfig())
	a := addr(0, 0)
	s.Apply(read(0, a))  // home 0
	s.Apply(read(2, a))  // cluster 1 shares (R)
	s.Apply(write(2, a)) // write hit on R: upgrade, remote transaction
	cl := s.Cluster(1)
	if cl.C.Upgrades.Write != 1 {
		t.Fatalf("upgrades = %+v, want 1 write", cl.C.Upgrades)
	}
	// A second write hits M: no more upgrades.
	s.Apply(write(2, a))
	if cl.C.Upgrades.Write != 1 {
		t.Fatal("M write hit re-upgraded")
	}
	// Home cluster 0 was invalidated.
	if s.Cluster(0).HasBlock(memsys.BlockOf(a)) {
		t.Fatal("home cluster copy survived remote upgrade")
	}
}

func TestPageCacheHitPath(t *testing.T) {
	cfg := testConfig()
	cfg.NewPC = func() (*pagecache.PageCache, error) {
		return pagecache.New(2, pagecache.NewFixedPolicy(0)) // threshold 0: relocate on 1st capacity miss
	}
	cfg.Counters = cluster.CountersDirectory
	s := mustNew(cfg)
	a := addr(0, 0)
	b := memsys.BlockOf(a)
	s.Apply(read(0, a)) // home 0
	s.Apply(read(2, a)) // cluster 1: cold
	// Conflict-evict, then refetch: capacity miss count 1 > 0 threshold
	// => relocation, and the block installs into the PC.
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	s.Apply(read(2, a))
	cl := s.Cluster(1)
	if cl.C.Relocations != 1 {
		t.Fatalf("relocations = %d, want 1", cl.C.Relocations)
	}
	if !cl.PC().IsMapped(0) {
		t.Fatal("page 0 not mapped after relocation")
	}
	if st := cl.PC().Lookup(b); !st.Valid {
		t.Fatal("triggering block not installed in PC")
	}
	// Evict from L1 again and refetch: now a PC hit, no network. (The
	// conflicting refetches may themselves hit the PC: clean victims of
	// a mapped page are deposited into their frame.)
	s.Apply(read(2, addr(0, 2)))
	s.Apply(read(2, addr(0, 4)))
	remoteBefore := cl.C.Remote().Read
	pcBefore := cl.C.PCHits.Read
	s.Apply(read(2, a))
	if cl.C.PCHits.Read != pcBefore+1 {
		t.Fatalf("PC hits = %d, want %d", cl.C.PCHits.Read, pcBefore+1)
	}
	if cl.C.Remote().Read != remoteBefore {
		t.Fatal("PC hit went remote")
	}
}

func TestPageEvictionFlushesCluster(t *testing.T) {
	cfg := testConfig()
	cfg.NewPC = func() (*pagecache.PageCache, error) {
		return pagecache.New(1, pagecache.NewFixedPolicy(0))
	}
	cfg.Counters = cluster.CountersDirectory
	s := mustNew(cfg)
	// Home everything on cluster 0 via P0 first touch.
	for pg := 0; pg < 3; pg++ {
		s.Apply(read(0, addr(pg, 0)))
	}
	// Cluster 1: force relocation of page 0 (cold, evict, capacity).
	relocatePage := func(pg int) {
		s.Apply(read(2, addr(pg, 0)))
		s.Apply(read(2, addr(pg, 2)))
		s.Apply(read(2, addr(pg, 4)))
		s.Apply(read(2, addr(pg, 0)))
	}
	relocatePage(0)
	cl := s.Cluster(1)
	if !cl.PC().IsMapped(0) {
		t.Fatal("page 0 not mapped")
	}
	// Dirty a block of page 0 so the flush has something to write back.
	s.Apply(write(2, addr(0, 1)))
	wbBefore := cl.C.WritebacksHome
	relocatePage(1) // only 1 frame: page 0 evicted
	if !cl.PC().IsMapped(1) || cl.PC().IsMapped(0) {
		t.Fatal("LRM eviction did not replace page 0 with page 1")
	}
	if cl.C.PageEvictions != 1 {
		t.Fatalf("page evictions = %d, want 1", cl.C.PageEvictions)
	}
	if cl.C.WritebacksHome <= wbBefore {
		t.Fatal("evicting a page with dirty blocks produced no write-back")
	}
	// The dirty L1 copy of page 0 block 1 must be gone from the cluster.
	if cl.Bus().HasBlock(memsys.BlockOf(addr(0, 1))) {
		t.Fatal("page flush left an L1 copy")
	}
}

func TestVxpRelocation(t *testing.T) {
	cfg := testConfig()
	cfg.NewNC = func() (core.NC, error) {
		return core.NewVictim(core.VictimConfig{
			Bytes: 4 * memsys.BlockBytes, Ways: 4,
			Indexing: cache.ByPage, SetCounters: true,
		})
	}
	cfg.NewPC = func() (*pagecache.PageCache, error) {
		return pagecache.New(2, pagecache.NewFixedPolicy(2)) // relocate on 3rd victimization
	}
	cfg.Counters = cluster.CountersNCSet
	s := mustNew(cfg)
	// Home page 0 on cluster 0; cluster 1 victimizes its blocks
	// repeatedly: the NC set counter climbs past the threshold and the
	// predominant page (page 0) relocates.
	s.Apply(read(0, addr(0, 0)))
	// Each round: fetch three conflicting blocks of page 0 into P2's
	// 2-way L1 set 0 -> victimizations into the (page-indexed) NC.
	for round := 0; round < 3; round++ {
		s.Apply(read(2, addr(0, 0)))
		s.Apply(read(2, addr(0, 2)))
		s.Apply(read(2, addr(0, 4)))
	}
	cl := s.Cluster(1)
	if cl.C.Relocations == 0 {
		t.Fatal("vxp counters never triggered a relocation")
	}
	if !cl.PC().IsMapped(0) {
		t.Fatal("predominant page not relocated")
	}
}

func TestRunAndInterleaver(t *testing.T) {
	s := mustNew(testConfig())
	refs := []trace.Ref{
		read(0, addr(0, 0)), write(1, addr(0, 0)),
		read(2, addr(1, 0)), read(3, addr(1, 0)),
	}
	n, err := s.ApplyBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || s.RefsApplied() != 4 {
		t.Fatalf("ApplyBatch = %d refs, RefsApplied = %d", n, s.RefsApplied())
	}
	tot := s.Totals()
	if tot.Refs.Total() != 4 || tot.Refs.Write != 1 {
		t.Fatalf("Refs = %+v", tot.Refs)
	}
}

func directoryNoOwner() int { return -1 }
