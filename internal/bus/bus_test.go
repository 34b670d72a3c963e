package bus

import (
	"testing"
	"testing/quick"

	"dsmnc/internal/cache"
	"dsmnc/memsys"
)

func newBus() *Bus {
	b, err := New(4, cache.Config{Bytes: 8 * memsys.BlockBytes, Ways: 2})
	if err != nil {
		panic(err)
	}
	return b
}

func TestProbeAndFill(t *testing.T) {
	b := newBus()
	if b.Procs() != 4 {
		t.Fatal("Procs")
	}
	if b.Probe(0, 5) != nil {
		t.Fatal("empty bus probe hit")
	}
	b.Fill(0, 5, cache.Exclusive)
	ln := b.Probe(0, 5)
	if ln == nil || ln.State != cache.Exclusive {
		t.Fatalf("probe = %v", ln)
	}
	if b.Probe(1, 5) != nil {
		t.Fatal("fill leaked into sibling cache")
	}
	if !b.HasBlock(5) || b.HasDirty(5) {
		t.Fatal("HasBlock/HasDirty wrong")
	}
}

func TestSnoopReadDowngradesModified(t *testing.T) {
	b := newBus()
	b.Fill(1, 7, cache.Modified)
	res := b.SnoopRead(0, 7)
	if res.Supplier != 1 || res.State != cache.Modified {
		t.Fatalf("snoop = %+v", res)
	}
	if b.Probe(1, 7).State != cache.Shared {
		t.Fatal("modified supplier not downgraded to Shared")
	}
}

func TestSnoopReadKeepsRMastership(t *testing.T) {
	b := newBus()
	b.Fill(2, 7, cache.RemoteMaster)
	res := b.SnoopRead(0, 7)
	if res.Supplier != 2 || res.State != cache.RemoteMaster {
		t.Fatalf("snoop = %+v", res)
	}
	if b.Probe(2, 7).State != cache.RemoteMaster {
		t.Fatal("R supplier lost mastership on a read snoop")
	}
}

func TestSnoopReadMiss(t *testing.T) {
	b := newBus()
	b.Fill(0, 7, cache.Modified) // requester's own copy must not answer
	if res := b.SnoopRead(0, 7); res.Supplier != -1 {
		t.Fatalf("snoop answered from requester: %+v", res)
	}
}

func TestSnoopWriteInvalidatesEveryone(t *testing.T) {
	b := newBus()
	b.Fill(1, 9, cache.Shared)
	b.Fill(2, 9, cache.RemoteMaster)
	b.Fill(3, 9, cache.Shared)
	res := b.SnoopWrite(0, 9)
	if res.Supplier == -1 {
		t.Fatal("no supplier")
	}
	for p := 1; p < 4; p++ {
		if b.Probe(p, 9) != nil {
			t.Fatalf("P%d still holds the block after SnoopWrite", p)
		}
	}
}

func TestSnoopWritePrefersModified(t *testing.T) {
	b := newBus()
	b.Fill(1, 9, cache.Shared)
	b.Fill(3, 9, cache.Modified)
	res := b.SnoopWrite(0, 9)
	if res.Supplier != 3 || res.State != cache.Modified {
		t.Fatalf("snoop = %+v, want modified supplier 3", res)
	}
}

func TestInvalidateAll(t *testing.T) {
	b := newBus()
	b.Fill(0, 4, cache.Shared)
	b.Fill(1, 4, cache.Modified)
	copies, dirty := b.InvalidateAll(4)
	if copies != 2 || !dirty {
		t.Fatalf("InvalidateAll = (%d,%v)", copies, dirty)
	}
	if b.HasBlock(4) {
		t.Fatal("block survived InvalidateAll")
	}
	if c, d := b.InvalidateAll(4); c != 0 || d {
		t.Fatal("second InvalidateAll found copies")
	}
}

func TestExtractAndDowngradeDirty(t *testing.T) {
	b := newBus()
	if b.DowngradeDirty(3, cache.Shared) {
		t.Fatal("found dirty in empty bus")
	}
	b.Fill(2, 3, cache.Modified)
	if !b.DowngradeDirty(3, cache.RemoteMaster) {
		t.Fatal("DowngradeDirty missed")
	}
	if b.Probe(2, 3).State != cache.RemoteMaster {
		t.Fatal("not downgraded to the requested state")
	}
}

func TestTransferMastership(t *testing.T) {
	b := newBus()
	b.Fill(0, 8, cache.RemoteMaster)
	b.Fill(2, 8, cache.Shared)
	if !b.TransferMastership(0, 8) {
		t.Fatal("no sibling took mastership")
	}
	if b.Probe(2, 8).State != cache.RemoteMaster {
		t.Fatal("sibling not promoted to R")
	}
	// Without any Shared sibling, the transfer fails.
	b.Fill(1, 16, cache.RemoteMaster)
	if b.TransferMastership(1, 16) {
		t.Fatal("mastership transferred with no sharer")
	}
}

func TestEvictPage(t *testing.T) {
	b := newBus()
	p := memsys.Page(1)
	first := memsys.FirstBlock(p)
	b.Fill(0, first, cache.Modified)
	b.Fill(1, first+1, cache.Shared)
	b.Fill(2, first+2, cache.Modified)
	b.Fill(3, memsys.FirstBlock(2), cache.Modified) // other page
	dirty := b.EvictPage(p)
	if len(dirty) != 2 {
		t.Fatalf("EvictPage dirty = %v, want 2 blocks", dirty)
	}
	if b.HasBlock(first) || b.HasBlock(first+1) {
		t.Fatal("page blocks survived")
	}
	if !b.HasBlock(memsys.FirstBlock(2)) {
		t.Fatal("unrelated page evicted")
	}
}

// Property: after any sequence of snoops, at most one cache holds blk in
// M, and M never coexists with other valid copies on the same bus.
func TestBusSingleWriterInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newBus()
		for _, op := range ops {
			p := int(op % 4)
			blk := memsys.Block((op >> 2) % 8)
			switch (op >> 5) % 4 {
			case 0:
				// Write: bus invalidation then fill M.
				b.SnoopWrite(p, blk)
				b.Fill(p, blk, cache.Modified)
			case 1:
				// Read: join as Shared.
				b.SnoopRead(p, blk)
				b.Fill(p, blk, cache.Shared)
			case 2:
				b.InvalidateAll(blk)
			case 3:
				b.Cache(p).Evict(blk)
			}
			// Invariant check over all blocks.
			for blk := memsys.Block(0); blk < 8; blk++ {
				m, valid := 0, 0
				for q := 0; q < 4; q++ {
					if ln := b.Probe(q, blk); ln != nil {
						valid++
						if ln.State.Dirty() {
							m++
						}
					}
				}
				if m > 1 || (m == 1 && valid > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMOESISnoopRead(t *testing.T) {
	b := newBus()
	b.SetMOESI(true)
	if !b.MOESI() {
		t.Fatal("flag")
	}
	b.Fill(1, 7, cache.Modified)
	res := b.SnoopRead(0, 7)
	if res.Supplier != 1 || res.State != cache.Modified {
		t.Fatalf("snoop = %+v", res)
	}
	if st := b.Probe(1, 7).State; st != cache.Owned {
		t.Fatalf("supplier state = %v, want O under MOESI", st)
	}
	// The Owned copy still answers DowngradeDirty.
	if !b.HasDirty(7) {
		t.Fatal("O not dirty")
	}
	if !b.DowngradeDirty(7, cache.RemoteMaster) {
		t.Fatal("DowngradeDirty missed O")
	}
	if st := b.Probe(1, 7).State; st != cache.RemoteMaster {
		t.Fatalf("state = %v after downgrade", st)
	}
}

func TestSnoopWriteConsumesOwned(t *testing.T) {
	b := newBus()
	b.SetMOESI(true)
	b.Fill(2, 5, cache.Owned)
	b.Fill(3, 5, cache.Shared)
	res := b.SnoopWrite(0, 5)
	if res.Supplier != 2 || res.State != cache.Owned {
		t.Fatalf("snoop = %+v, want owned supplier", res)
	}
	if b.HasBlock(5) {
		t.Fatal("copies survived")
	}
}
