package memsys

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if BlockBytes != 64 {
		t.Fatalf("BlockBytes = %d, want 64", BlockBytes)
	}
	if PageBytes != 4096 {
		t.Fatalf("PageBytes = %d, want 4096", PageBytes)
	}
	if BlocksPerPage != 64 {
		t.Fatalf("BlocksPerPage = %d, want 64", BlocksPerPage)
	}
}

func TestAddressMath(t *testing.T) {
	cases := []struct {
		a     Addr
		block Block
		page  Page
		inPg  int
	}{
		{0, 0, 0, 0},
		{63, 0, 0, 0},
		{64, 1, 0, 1},
		{4095, 63, 0, 63},
		{4096, 64, 1, 0},
		{4096 + 64*5 + 7, 69, 1, 5},
	}
	for _, c := range cases {
		if got := BlockOf(c.a); got != c.block {
			t.Errorf("BlockOf(%d) = %d, want %d", c.a, got, c.block)
		}
		if got := PageOf(c.a); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.a, got, c.page)
		}
		if got := PageOfBlock(c.block); got != c.page {
			t.Errorf("PageOfBlock(%d) = %d, want %d", c.block, got, c.page)
		}
		if got := BlockInPage(c.block); got != c.inPg {
			t.Errorf("BlockInPage(%d) = %d, want %d", c.block, got, c.inPg)
		}
	}
}

func TestAddressMathProperties(t *testing.T) {
	// Block and page decomposition must be consistent for any address.
	f := func(a Addr) bool {
		b := BlockOf(a)
		p := PageOf(a)
		if PageOfBlock(b) != p {
			return false
		}
		if b.Base() > a || a-b.Base() >= BlockBytes {
			return false
		}
		if p.Base() > a || a-p.Base() >= PageBytes {
			return false
		}
		// Reconstructing the block from its page and offset must agree.
		return FirstBlock(p)+Block(BlockInPage(b)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.Procs() != 32 {
		t.Fatalf("Procs() = %d, want 32", g.Procs())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := (Geometry{0, 4}).Validate(); err == nil {
		t.Fatal("Validate accepted zero clusters")
	}
	for pid := 0; pid < g.Procs(); pid++ {
		c := g.ClusterOf(pid)
		l := g.LocalProc(pid)
		if c < 0 || c >= g.Clusters || l < 0 || l >= g.ProcsPerCluster {
			t.Fatalf("pid %d: cluster %d local %d out of range", pid, c, l)
		}
		if c*g.ProcsPerCluster+l != pid {
			t.Fatalf("pid %d does not round-trip (%d,%d)", pid, c, l)
		}
	}
}

func TestFirstTouch(t *testing.T) {
	ft := NewFirstTouch()
	if _, ok := ft.HomeIfPlaced(7); ok {
		t.Fatal("unplaced page reported as placed")
	}
	if h := ft.Home(7, 3); h != 3 {
		t.Fatalf("first touch home = %d, want 3", h)
	}
	// Second toucher must not steal the page.
	if h := ft.Home(7, 5); h != 3 {
		t.Fatalf("second touch home = %d, want 3", h)
	}
	if h, ok := ft.HomeIfPlaced(7); !ok || h != 3 {
		t.Fatalf("HomeIfPlaced = (%d,%v), want (3,true)", h, ok)
	}
	ft.Home(8, 3)
	ft.Home(9, 2)
	for p, want := range map[Page]int{7: 3, 8: 3, 9: 2} {
		if h, ok := ft.HomeIfPlaced(p); !ok || h != want {
			t.Fatalf("HomeIfPlaced(%d) = (%d,%v), want (%d,true)", p, h, ok, want)
		}
	}
}

func TestFrameColoring(t *testing.T) {
	// Frames are deterministic and spread: consecutive pages must not
	// all share the same low bits (the property that breaks Radix's
	// power-of-two bucket aliasing).
	if FrameOf(5) != FrameOf(5) {
		t.Fatal("FrameOf not deterministic")
	}
	colors := map[uint64]bool{}
	for p := Page(0); p < 256; p++ {
		colors[FrameOf(p)&127] = true
	}
	if len(colors) < 100 {
		t.Fatalf("only %d/128 colors used by 256 consecutive pages", len(colors))
	}
}

func TestPhysBlockPreservesOffsets(t *testing.T) {
	f := func(a Addr) bool {
		b := BlockOf(a)
		// The block offset within the page survives the frame mapping,
		// so intra-page spatial locality is intact.
		return int(PhysBlock(b)&(BlocksPerPage-1)) == BlockInPage(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Blocks of one page stay contiguous in physical space.
	p := Page(3)
	base := PhysBlock(FirstBlock(p))
	for i := 0; i < BlocksPerPage; i++ {
		if PhysBlock(FirstBlock(p)+Block(i)) != base+uint64(i) {
			t.Fatalf("block %d of page not contiguous", i)
		}
	}
}
