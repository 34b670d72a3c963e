package sim

import (
	"testing"

	"dsmnc/internal/cache"
	"dsmnc/internal/cluster"
	"dsmnc/internal/core"
	"dsmnc/internal/directory"
	"dsmnc/internal/migration"
	"dsmnc/internal/pagecache"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/trace"
)

// The metamorphic property of a deterministic machine: how a trace is
// delivered must not change where it ends up. Applying references one
// at a time and applying them in batches of any size must yield the
// same machine (ApplyBatch is exactly a loop of Apply).
//
// "The same machine" is observed through the event counters only: the
// two machines must agree on Totals() after the trace, and then again
// after every reference of a second, one-at-a-time pass over the same
// trace. Cache, directory and page-cache state that diverged in the
// first pass without moving a counter (an LRU order, a sharer set, a
// relocation counter) changes what the second pass hits and misses, so
// it shows up there as diverging counters.

// synthTrace generates a deterministic pseudo-random shared-reference
// stream: enough pages and processors to exercise sharing, invalidation,
// victimization and relocation against tiny caches.
func synthTrace(procs, pages, n int, seed uint64) []trace.Ref {
	refs := make([]trace.Ref, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		pid := int32((x >> 33) % uint64(procs))
		page := (x >> 21) % uint64(pages)
		blk := (x >> 10) % uint64(memsys.BlocksPerPage)
		op := trace.Read
		if x&3 == 0 {
			op = trace.Write
		}
		a := memsys.Addr(page)*memsys.PageBytes + memsys.Addr(blk)*memsys.BlockBytes
		refs = append(refs, trace.Ref{PID: pid, Op: op, Addr: a})
	}
	return refs
}

// shapeConfigs covers every machine shape: each NC organization, both
// directory kinds, page caches under both counter styles, and the
// migration engine.
func shapeConfigs() map[string]func() Config {
	base := func() Config {
		return Config{
			Geometry: memsys.Geometry{Clusters: 2, ProcsPerCluster: 2},
			L1:       cache.Config{Bytes: 4 * memsys.BlockBytes, Ways: 2},
		}
	}
	ncBytes := 8 * memsys.BlockBytes
	return map[string]func() Config{
		"base": base,
		"vb": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) {
				return core.NewVictim(core.VictimConfig{Bytes: ncBytes, Ways: 2})
			}
			return cfg
		},
		"vp": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) {
				return core.NewVictim(core.VictimConfig{Bytes: ncBytes, Ways: 4, Indexing: cache.ByPage})
			}
			return cfg
		},
		"vxp": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) {
				return core.NewVictim(core.VictimConfig{
					Bytes: ncBytes, Ways: 4, Indexing: cache.ByPage, SetCounters: true,
				})
			}
			cfg.NewPC = func() (*pagecache.PageCache, error) {
				return pagecache.New(3, pagecache.NewAdaptivePolicy(2))
			}
			cfg.Counters = cluster.CountersNCSet
			cfg.DecrementCounters = true
			return cfg
		},
		"ncp": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) { return core.NewRelaxed(ncBytes, 2) }
			cfg.NewPC = func() (*pagecache.PageCache, error) {
				return pagecache.New(3, pagecache.NewFixedPolicy(2))
			}
			cfg.Counters = cluster.CountersDirectory
			return cfg
		},
		"ncd": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) { return core.NewInclusive(ncBytes, 2) }
			return cfg
		},
		"ncs": func() Config {
			cfg := base()
			cfg.NewNC = func() (core.NC, error) { return core.NewInfinite(0), nil }
			return cfg
		},
		"limited-dir": func() Config {
			cfg := base()
			cfg.NewDirectory = func(clusters int) (directory.Protocol, error) {
				return directory.NewLimited(clusters, 1)
			}
			return cfg
		},
		"origin": func() Config {
			cfg := base()
			cfg.Migration = &migration.Config{ReplicateThreshold: 4, MigrateThreshold: 8}
			return cfg
		},
	}
}

// applyAll drives refs through m one at a time, failing the test on any
// error.
func applyAll(t *testing.T, m *System, refs []trace.Ref) {
	t.Helper()
	for i, r := range refs {
		if err := m.Apply(r); err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}
}

// TestMetamorphicApplyBatch delivers a trace in batches of assorted
// sizes (including sizes that straddle the internal fast path's poll
// boundaries) and requires the same counters as one-at-a-time delivery,
// after the trace and after every reference of a one-at-a-time replay.
// Two traces drive every shape: a wide one over 24 pages exercises
// relocation and page-cache eviction, and a hot one over 2 pages makes
// L1 and NC hits common, so replacement order matters. Check is left
// off so the batched run exercises the hoisted fast loop.
func TestMetamorphicApplyBatch(t *testing.T) {
	const n = 3000
	wide, hot := synthTrace(4, 24, n, 0xbeef), synthTrace(4, 2, n, 0xbeef)
	for name, mk := range shapeConfigs() {
		t.Run(name, func(t *testing.T) {
			checkApplyBatch(t, "wide", mk, wide)
			checkApplyBatch(t, "hot", mk, hot)
		})
	}
}

// checkApplyBatch runs one trace through one machine shape, one
// reference at a time and in batches, and compares the counters.
func checkApplyBatch(t *testing.T, tname string, mk func() Config, refs []trace.Ref) {
	t.Helper()
	n := len(refs)
	single, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, single, refs)
	wantTotals := single.Totals()
	wantReplay := make([]stats.Counters, n)
	for i, r := range refs {
		if err := single.Apply(r); err != nil {
			t.Fatalf("%s: replay ref %d: %v", tname, i, err)
		}
		wantReplay[i] = single.Totals()
	}

	for _, size := range []int{1, 3, 7, 64, 1023, 1024, n} {
		batched, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += size {
			end := min(i+size, n)
			done, err := batched.ApplyBatch(refs[i:end])
			if err != nil {
				t.Fatalf("%s, size %d: batch at %d: %v", tname, size, i, err)
			}
			if done != end-i {
				t.Fatalf("%s, size %d: batch at %d applied %d of %d", tname, size, i, done, end-i)
			}
		}
		if got := batched.RefsApplied(); got != int64(n) {
			t.Fatalf("%s, size %d: applied %d refs", tname, size, got)
		}
		if got := batched.Totals(); got != wantTotals {
			t.Fatalf("%s, size %d: counters diverged after the trace:\none-at-a-time %+v\nbatched       %+v", tname, size, wantTotals, got)
		}
		for i, r := range refs {
			if err := batched.Apply(r); err != nil {
				t.Fatalf("%s, size %d: replay ref %d: %v", tname, size, i, err)
			}
			if got := batched.Totals(); got != wantReplay[i] {
				t.Fatalf("%s, size %d: counters diverged at replay ref %d (machine state diverged in the first pass):\none-at-a-time %+v\nbatched       %+v", tname, size, i, wantReplay[i], got)
			}
		}
	}
}
