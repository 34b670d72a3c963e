package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsmnc/internal/cache"
	"dsmnc/internal/check"
	"dsmnc/internal/cluster"
	"dsmnc/internal/core"
	"dsmnc/internal/migration"
	"dsmnc/internal/pagecache"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/trace"
)

// systemsUnderTest builds one instance of every system organization on a
// tiny machine, for cross-cutting invariant checks.
func systemsUnderTest() map[string]*System {
	geo := memsys.Geometry{Clusters: 4, ProcsPerCluster: 2}
	l1 := cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2}
	mk := func(nc func() (core.NC, error), pc bool, mode cluster.CounterMode) *System {
		cfg := Config{Geometry: geo, L1: l1, NewNC: nc, Counters: mode}
		if pc {
			cfg.NewPC = func() (*pagecache.PageCache, error) {
				return pagecache.New(4, pagecache.NewAdaptivePolicy(4))
			}
		}
		return mustNew(cfg)
	}
	victim := func(idx cache.Indexing, counters bool) func() (core.NC, error) {
		return func() (core.NC, error) {
			return core.NewVictim(core.VictimConfig{
				Bytes: 8 * memsys.BlockBytes, Ways: 4, Indexing: idx, SetCounters: counters,
			})
		}
	}
	return map[string]*System{
		"base": mk(nil, false, cluster.CountersNone),
		"nc":   mk(func() (core.NC, error) { return core.NewRelaxed(8*memsys.BlockBytes, 4) }, false, cluster.CountersNone),
		"vb":   mk(victim(cache.ByBlock, false), false, cluster.CountersNone),
		"vp":   mk(victim(cache.ByPage, false), false, cluster.CountersNone),
		"NCD":  mk(func() (core.NC, error) { return core.NewInclusive(32*memsys.BlockBytes, 4) }, false, cluster.CountersNone),
		"NCS":  mk(func() (core.NC, error) { return core.NewInfinite(stats.NCTechSRAM), nil }, false, cluster.CountersNone),
		"vbp":  mk(victim(cache.ByBlock, false), true, cluster.CountersDirectory),
		"vxp":  mk(victim(cache.ByPage, true), true, cluster.CountersNCSet),
	}
}

// randomTrace produces a mixed read/write trace over a handful of pages
// so that sharing, invalidations, victimizations and relocations all
// occur.
func randomTrace(seed int64, n int, procs int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		page := rng.Intn(8)
		blk := rng.Intn(16)
		op := trace.Read
		if rng.Intn(4) == 0 {
			op = trace.Write
		}
		refs[i] = trace.Ref{
			PID:  int32(rng.Intn(procs)),
			Op:   op,
			Addr: memsys.Addr(page)*memsys.PageBytes + memsys.Addr(blk)*memsys.BlockBytes,
		}
	}
	return refs
}

// checkCoherence runs the invariant checker's full block check over
// blocks of s.
func checkCoherence(s *System, blocks []memsys.Block) error {
	c := check.New(check.Config{Geometry: s.geo, Dir: s.dir, Clusters: s.clusters, Home: s.ft.HomeIfPlaced})
	return c.CheckAll(blocks)
}

// TestCoherenceUnderRandomTraffic drives random sharing traffic through
// every organization and checks the global single-writer invariant and
// event conservation afterwards.
func TestCoherenceUnderRandomTraffic(t *testing.T) {
	var blocks []memsys.Block
	for page := 0; page < 8; page++ {
		for blk := 0; blk < 16; blk++ {
			blocks = append(blocks, memsys.FirstBlock(memsys.Page(page))+memsys.Block(blk))
		}
	}
	for name, s := range systemsUnderTest() {
		refs := randomTrace(99, 20000, s.Geometry().Procs())
		applyAll(t, s, refs)
		if err := checkCoherence(s, blocks); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		tot := s.Totals()
		satisfied := tot.L1Hits.Total() + tot.C2C.Total() + tot.LocalC2C.Total() +
			tot.NCHits.Total() + tot.PCHits.Total() + tot.LocalMem.Total() + tot.Remote().Total()
		if satisfied != tot.Refs.Total() {
			t.Errorf("%s: %d refs but %d satisfied", name, tot.Refs.Total(), satisfied)
		}
		if tot.Refs.Total() != int64(len(refs)) {
			t.Errorf("%s: lost references", name)
		}
	}
}

// TestDirtyOwnerAlwaysHoldsData is a property test: after any random
// trace, whoever the directory says owns a dirty block can actually
// produce it.
func TestDirtyOwnerAlwaysHoldsData(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		s := systemsUnderTest()["vxp"]
		// Fresh system per run.
		geo := memsys.Geometry{Clusters: 4, ProcsPerCluster: 2}
		s = mustNew(Config{
			Geometry: geo,
			L1:       cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2},
			NewNC: func() (core.NC, error) {
				return core.NewVictim(core.VictimConfig{
					Bytes: 8 * memsys.BlockBytes, Ways: 4,
					Indexing: cache.ByPage, SetCounters: true,
				})
			},
			NewPC: func() (*pagecache.PageCache, error) {
				return pagecache.New(3, pagecache.NewAdaptivePolicy(4))
			},
			Counters: cluster.CountersNCSet,
		})
		n := int(nOps%2000) + 100
		applyAll(t, s, randomTrace(seed, n, geo.Procs()))
		for page := 0; page < 8; page++ {
			for blk := 0; blk < 16; blk++ {
				b := memsys.FirstBlock(memsys.Page(page)) + memsys.Block(blk)
				if err := checkCoherence(s, []memsys.Block{b}); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMOESISystemCoherence runs the random traffic under the O-state
// protocol option.
func TestMOESISystemCoherence(t *testing.T) {
	geo := memsys.Geometry{Clusters: 4, ProcsPerCluster: 2}
	s := mustNew(Config{
		Geometry: geo,
		L1:       cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2},
		NewNC: func() (core.NC, error) {
			return core.NewVictim(core.VictimConfig{Bytes: 8 * memsys.BlockBytes, Ways: 4})
		},
		MOESI: true,
	})
	applyAll(t, s, randomTrace(7, 20000, geo.Procs()))
	var blocks []memsys.Block
	for page := 0; page < 8; page++ {
		for blk := 0; blk < 16; blk++ {
			blocks = append(blocks, memsys.FirstBlock(memsys.Page(page))+memsys.Block(blk))
		}
	}
	if err := checkCoherence(s, blocks); err != nil {
		t.Fatal(err)
	}
	// MOESI must reduce (or match) downgrade write-back traffic versus
	// MESI on identical input.
	mesi := mustNew(Config{
		Geometry: geo,
		L1:       cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2},
		NewNC: func() (core.NC, error) {
			return core.NewVictim(core.VictimConfig{Bytes: 8 * memsys.BlockBytes, Ways: 4})
		},
	})
	applyAll(t, mesi, randomTrace(7, 20000, geo.Procs()))
	mo, me := s.Totals(), mesi.Totals()
	if mo.DowngradeWB != 0 {
		t.Errorf("MOESI recorded %d downgrade write-backs, want 0", mo.DowngradeWB)
	}
	if me.DowngradeWB == 0 {
		t.Log("random trace produced no downgrades; MESI comparison vacuous")
	}
}

// TestDecrementedSystemCoherence runs random traffic with the §3.4
// counter-decrement refinement enabled in both counter modes.
func TestDecrementedSystemCoherence(t *testing.T) {
	geo := memsys.Geometry{Clusters: 4, ProcsPerCluster: 2}
	for _, mode := range []cluster.CounterMode{cluster.CountersDirectory, cluster.CountersNCSet} {
		idx := cache.ByBlock
		if mode == cluster.CountersNCSet {
			idx = cache.ByPage
		}
		s := mustNew(Config{
			Geometry: geo,
			L1:       cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2},
			NewNC: func() (core.NC, error) {
				return core.NewVictim(core.VictimConfig{
					Bytes: 8 * memsys.BlockBytes, Ways: 4,
					Indexing: idx, SetCounters: mode == cluster.CountersNCSet,
				})
			},
			NewPC: func() (*pagecache.PageCache, error) {
				return pagecache.New(4, pagecache.NewFixedPolicy(8))
			},
			Counters:          mode,
			DecrementCounters: true,
		})
		applyAll(t, s, randomTrace(13, 15000, geo.Procs()))
		tot := s.Totals()
		if tot.Refs.Total() != 15000 {
			t.Errorf("mode %d: lost refs", mode)
		}
	}
}

// TestMigrationSystemCoherence drives the random traffic through an
// Origin-style migration/replication system and checks that replicated
// reads stay coherent with later writes.
func TestMigrationSystemCoherence(t *testing.T) {
	geo := memsys.Geometry{Clusters: 4, ProcsPerCluster: 2}
	mc := migration.Config{ReplicateThreshold: 4, MigrateThreshold: 8}
	s := mustNew(Config{
		Geometry:  geo,
		L1:        cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2},
		Migration: &mc,
	})
	applyAll(t, s, randomTrace(21, 25000, geo.Procs()))
	var blocks []memsys.Block
	for page := 0; page < 8; page++ {
		for blk := 0; blk < 16; blk++ {
			blocks = append(blocks, memsys.FirstBlock(memsys.Page(page))+memsys.Block(blk))
		}
	}
	if err := checkCoherence(s, blocks); err != nil {
		t.Fatal(err)
	}
	tot := s.Totals()
	satisfied := tot.L1Hits.Total() + tot.C2C.Total() + tot.LocalC2C.Total() +
		tot.NCHits.Total() + tot.PCHits.Total() + tot.LocalMem.Total() + tot.Remote().Total()
	if satisfied != tot.Refs.Total() {
		t.Fatalf("conservation broken: %d refs, %d satisfied", tot.Refs.Total(), satisfied)
	}
}

// TestReplicationServesLocalReads checks the full replica life cycle:
// grant after repeated remote reads, local service, collapse on write.
func TestReplicationServesLocalReads(t *testing.T) {
	geo := memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	mc := migration.Config{ReplicateThreshold: 3, MigrateThreshold: 1000}
	s := mustNew(Config{
		Geometry:  geo,
		L1:        cache.Config{Bytes: 4 * memsys.BlockBytes, Ways: 2},
		Migration: &mc,
	})
	a := func(blk int) memsys.Addr { return memsys.Addr(blk) * memsys.BlockBytes }
	s.Apply(trace.Ref{PID: 0, Op: trace.Write, Addr: a(0)}) // home page 0 on cluster 0... write
	// Cluster 1 reads different blocks of page 0 repeatedly (each a
	// remote miss) until the page replicates.
	for i := 0; i < 4; i++ {
		s.Apply(trace.Ref{PID: 2, Op: trace.Read, Addr: a(i + 1)})
	}
	cl1 := s.Cluster(1)
	remoteBefore := cl1.C.Remote().Read
	// A fresh block of the replicated page must now be served locally.
	s.Apply(trace.Ref{PID: 2, Op: trace.Read, Addr: a(10)})
	if cl1.C.Remote().Read != remoteBefore {
		t.Fatal("replicated page read went remote")
	}
	if cl1.C.ReplicaHits.Read == 0 {
		t.Fatal("replica hit not counted")
	}
	// A write by the home cluster collapses the replica; cluster 1 reads
	// go remote again (until the next grant).
	s.Apply(trace.Ref{PID: 0, Op: trace.Write, Addr: a(10)})
	if cl1.C.ReplicaFlushes == 0 {
		t.Fatal("collapse did not flush the replica holder")
	}
	remoteBefore = cl1.C.Remote().Read
	hitsBefore := cl1.C.ReplicaHits.Read
	s.Apply(trace.Ref{PID: 2, Op: trace.Read, Addr: a(11)})
	if cl1.C.ReplicaHits.Read != hitsBefore {
		t.Fatal("collapsed replica still serving reads")
	}
	if cl1.C.Remote().Read == remoteBefore {
		t.Fatal("post-collapse read did not go remote")
	}
}
