package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsmnc/memsys"
)

// mustNew builds a cache or panics; test-file-only convenience.
func mustNew(cfg Config) *SetAssoc {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func small() *SetAssoc {
	// 4 sets x 2 ways = 512 bytes.
	return mustNew(Config{Bytes: 8 * memsys.BlockBytes, Ways: 2})
}

func TestNewValidation(t *testing.T) {
	mustErr := func(cfg Config) {
		t.Helper()
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) did not fail", cfg)
		}
	}
	mustErr(Config{Bytes: 0, Ways: 2})
	mustErr(Config{Bytes: 64, Ways: 0})
	mustErr(Config{Bytes: 3 * 64, Ways: 2}) // not divisible
	mustErr(Config{Bytes: 6 * 64, Ways: 2}) // 3 sets, not pow2
	c, err := New(Config{Bytes: 16 * 1024, Ways: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Sets() != 64 || c.Ways() != 4 || c.Bytes() != 16*1024 {
		t.Fatalf("16KB/4w: sets=%d ways=%d bytes=%d", c.Sets(), c.Ways(), c.Bytes())
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", RemoteMaster: "R",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state produced empty string")
	}
	if Invalid.Valid() || !Modified.Valid() || !Modified.Dirty() || Shared.Dirty() {
		t.Error("state predicates wrong")
	}
}

func TestFillLookupEvict(t *testing.T) {
	c := small()
	if c.Lookup(5) != nil {
		t.Fatal("empty cache claims a hit")
	}
	v := c.Fill(5, Shared)
	if v.State.Valid() {
		t.Fatal("fill into empty set produced a victim")
	}
	ln := c.Lookup(5)
	if ln == nil || ln.State != Shared {
		t.Fatalf("Lookup(5) = %v", ln)
	}
	// Refill updates state in place without a victim.
	if v := c.Fill(5, Modified); v.State.Valid() {
		t.Fatal("refill produced a victim")
	}
	if c.Lookup(5).State != Modified {
		t.Fatal("refill did not update state")
	}
	old := c.Evict(5)
	if old.State != Modified || old.Block != 5 {
		t.Fatalf("Evict returned %v", old)
	}
	if c.Lookup(5) != nil {
		t.Fatal("evicted block still present")
	}
	if c.Evict(5).State.Valid() {
		t.Fatal("double evict returned valid line")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 4 sets, 2 ways; blocks 0,4,8,12 share set 0
	c.Fill(0, Shared)
	c.Fill(4, Shared)
	c.Touch(0) // 4 is now LRU
	v := c.Fill(8, Shared)
	if v.Block != 4 {
		t.Fatalf("victim = block %d, want 4 (LRU)", v.Block)
	}
	if c.Lookup(0) == nil || c.Lookup(8) == nil {
		t.Fatal("survivors missing")
	}
	// Lookup must not perturb recency: probe 0 via Lookup, then fill —
	// victim must still follow the Touch/Fill order (0 is MRU via the
	// earlier Touch... make 8 MRU first).
	c.Touch(8)
	c.Lookup(0) // probe only
	v = c.Fill(12, Shared)
	if v.Block != 0 {
		t.Fatalf("victim = block %d, want 0 (Lookup must not touch LRU)", v.Block)
	}
}

func TestIndexingSchemes(t *testing.T) {
	cb := mustNew(Config{Bytes: 8 * memsys.BlockBytes, Ways: 2, Indexing: ByBlock})
	cp := mustNew(Config{Bytes: 8 * memsys.BlockBytes, Ways: 2, Indexing: ByPage})
	// Two blocks in the same page: different sets by block, same by page.
	b0, b1 := memsys.Block(0), memsys.Block(1)
	if cb.SetOf(b0) == cb.SetOf(b1) {
		t.Fatal("block indexing mapped consecutive blocks to one set")
	}
	if cp.SetOf(b0) != cp.SetOf(b1) {
		t.Fatal("page indexing split a page across sets")
	}
	// Blocks of different pages map to different sets by page (4 sets).
	p0 := memsys.FirstBlock(0)
	p1 := memsys.FirstBlock(1)
	if cp.SetOf(p0) == cp.SetOf(p1) {
		t.Fatal("page indexing mapped pages 0 and 1 to one set")
	}
}

func TestEvictPage(t *testing.T) {
	for _, idx := range []Indexing{ByBlock, ByPage} {
		c := mustNew(Config{Bytes: 64 * memsys.BlockBytes, Ways: 4, Indexing: idx})
		p := memsys.Page(3)
		first := memsys.FirstBlock(p)
		c.Fill(first, Modified)
		c.Fill(first+1, Shared)
		c.Fill(memsys.FirstBlock(9), Shared) // different page
		got := c.EvictPage(p)
		if len(got) != 2 {
			t.Fatalf("indexing %d: EvictPage removed %d lines, want 2", idx, len(got))
		}
		if c.Lookup(first) != nil || c.Lookup(first+1) != nil {
			t.Fatalf("indexing %d: page blocks survived EvictPage", idx)
		}
		if c.Lookup(memsys.FirstBlock(9)) == nil {
			t.Fatalf("indexing %d: EvictPage removed an unrelated page", idx)
		}
	}
}

func TestSetLines(t *testing.T) {
	c := small()
	c.Fill(0, Shared)
	c.Fill(4, Modified)
	s := c.SetOf(0)
	lines := c.AppendSetLines(nil, s)
	if len(lines) != 2 {
		t.Fatalf("AppendSetLines = %d lines, want 2", len(lines))
	}
	if c.AppendSetLines(nil, -1) != nil || c.AppendSetLines(nil, c.Sets()) != nil {
		t.Fatal("out-of-range AppendSetLines returned lines")
	}
}

func TestRangeCountClear(t *testing.T) {
	c := small()
	c.Fill(1, Shared)
	c.Fill(2, Modified)
	c.Fill(3, RemoteMaster)
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	n := 0
	c.Range(func(Line) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range early stop visited %d, want 2", n)
	}
	clear(c.lines)
	if c.Count() != 0 {
		t.Fatal("Count of an emptied cache is not 0")
	}
}

// Property: a set-associative cache never holds more than ways blocks per
// set, never holds duplicates, and Lookup after Fill always hits until an
// eviction of that block.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := mustNew(Config{Bytes: 16 * memsys.BlockBytes, Ways: 2})
		shadow := make(map[memsys.Block]bool)
		for _, op := range ops {
			b := memsys.Block(op % 64)
			switch op % 3 {
			case 0:
				v := c.Fill(b, Shared)
				if v.State.Valid() {
					delete(shadow, v.Block)
				}
				shadow[b] = true
			case 1:
				c.Evict(b)
				delete(shadow, b)
			case 2:
				c.Touch(b)
			}
			// No duplicates; per-set occupancy bound.
			perSet := make(map[int]int)
			seen := make(map[memsys.Block]bool)
			bad := false
			c.Range(func(ln Line) bool {
				if seen[ln.Block] {
					bad = true
					return false
				}
				seen[ln.Block] = true
				perSet[c.SetOf(ln.Block)]++
				return true
			})
			if bad {
				return false
			}
			for _, n := range perSet {
				if n > c.Ways() {
					return false
				}
			}
			// Shadow agreement.
			for b := range shadow {
				if c.Lookup(b) == nil {
					return false
				}
			}
			if c.Count() != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestInfinite(t *testing.T) {
	c := NewInfinite()
	rng := rand.New(rand.NewSource(1))
	blocks := make([]memsys.Block, 10000)
	for i := range blocks {
		blocks[i] = memsys.Block(rng.Uint64() >> 8)
		c.Fill(blocks[i], Shared)
	}
	for _, b := range blocks {
		if _, ok := c.Lookup(b); !ok {
			t.Fatalf("infinite cache lost block %d", b)
		}
	}
	c.Fill(blocks[0], Modified)
	if st, _ := c.Lookup(blocks[0]); st != Modified {
		t.Fatal("state update lost")
	}
	c.Fill(blocks[0], Invalid) // filling Invalid removes
	if _, ok := c.Lookup(blocks[0]); ok {
		t.Fatal("Invalid fill did not remove block")
	}
	st := c.Evict(blocks[1])
	if st != Shared {
		t.Fatalf("Evict returned %v, want Shared", st)
	}
	if _, ok := c.Lookup(blocks[1]); ok {
		t.Fatal("evicted block still present")
	}
}

func TestInfiniteEvictPage(t *testing.T) {
	c := NewInfinite()
	p := memsys.Page(5)
	first := memsys.FirstBlock(p)
	c.Fill(first, Modified)
	c.Fill(first+63, Shared)
	c.Fill(memsys.FirstBlock(6), Shared)
	var removed int
	c.EvictPage(p, func(b memsys.Block, st State) { removed++ })
	if removed != 2 {
		t.Fatalf("EvictPage removed %d, want 2", removed)
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d, want 1", c.Count())
	}
	c.EvictPage(6, nil) // nil fn must not panic
	if c.Count() != 0 {
		t.Fatal("EvictPage(nil fn) did not remove")
	}
}
